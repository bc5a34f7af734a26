package iosim

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/pt"
	"repro/internal/sim"
)

func TestRead4KLatencies(t *testing.T) {
	// §2.2.2 calibration points.
	if PathNative.Read4KLatency() != 74*sim.Microsecond {
		t.Fatal("native latency wrong")
	}
	if PathPassthrough.Read4KLatency() != 186*sim.Microsecond {
		t.Fatal("passthrough latency wrong")
	}
	if PathDom0.Read4KLatency() != 307*sim.Microsecond {
		t.Fatal("dom0 latency wrong")
	}
}

func TestStreamCapOrdering(t *testing.T) {
	d := DefaultDisk()
	if !(PathDom0.StreamCap(d) < PathPassthrough.StreamCap(d)) {
		t.Fatal("dom0 cap not below passthrough")
	}
	if !(PathPassthrough.StreamCap(d) < PathNative.StreamCap(d)) {
		t.Fatal("passthrough cap not below native")
	}
}

func TestDeliveredUnimpeded(t *testing.T) {
	s := Stream{DemandBps: 10e6, Placement: BufferScattered}
	bps, prog := s.Delivered(PathNative, DefaultDisk())
	if bps != 10e6 || prog != 1 {
		t.Fatalf("unimpeded stream throttled: %v %v", bps, prog)
	}
}

func TestDeliveredThrottledByDom0(t *testing.T) {
	s := Stream{DemandBps: 240e6, Placement: BufferScattered}
	bps, prog := s.Delivered(PathDom0, DefaultDisk())
	if prog >= 0.5 {
		t.Fatalf("X-Stream-like demand not throttled by the dom0 path: %v/%v", bps, prog)
	}
	_, progPass := s.Delivered(PathPassthrough, DefaultDisk())
	if progPass <= prog {
		t.Fatal("passthrough no better than dom0")
	}
}

func TestDeliveredSingleNodePenalty(t *testing.T) {
	scat := Stream{DemandBps: 260e6, Placement: BufferScattered}
	single := scat
	single.Placement = BufferSingleNode
	_, ps := scat.Delivered(PathPassthrough, DefaultDisk())
	_, p1 := single.Delivered(PathPassthrough, DefaultDisk())
	if p1 >= ps {
		t.Fatalf("single-node buffer not penalized: %v vs %v", p1, ps)
	}
}

func TestDeliveredIOPenalty(t *testing.T) {
	s := Stream{DemandBps: 54e6, Placement: BufferScattered, Penalty: 7}
	// The psearchy-style penalty applies to virtualized paths only.
	_, progNative := s.Delivered(PathNative, DefaultDisk())
	if progNative < 0.85 {
		t.Fatalf("penalty applied natively: %v", progNative)
	}
	_, progPass := s.Delivered(PathPassthrough, DefaultDisk())
	if progPass > 0.75 {
		t.Fatalf("penalty not applied to passthrough: %v", progPass)
	}
}

func TestDeliveredZeroDemand(t *testing.T) {
	var s Stream
	bps, prog := s.Delivered(PathDom0, DefaultDisk())
	if bps != 0 || prog != 1 {
		t.Fatal("zero-demand stream mishandled")
	}
}

// TestIOMMUTranslateAbortsOnInvalid: IOMMU translation never faults
// into software (§4.4.1); an invalid entry aborts and is counted.
func TestIOMMUTranslateAbortsOnInvalid(t *testing.T) {
	table := pt.NewHypervisorTable(8)
	var u IOMMU
	if _, ok := u.Translate(table, 5); ok {
		t.Fatal("invalid entry translated")
	}
	if u.Faults != 1 {
		t.Fatalf("faults = %d", u.Faults)
	}
	table.Map(5, 55)
	mfn, ok := u.Translate(table, 5)
	if !ok || mfn != 55 {
		t.Fatalf("valid translation failed: %v %v", mfn, ok)
	}
}

func TestFirstTouchIOMMUConflict(t *testing.T) {
	// A DMA buffer straddling a released (invalidated) page aborts —
	// the structural incompatibility of §4.4.1.
	table := pt.NewHypervisorTable(8)
	table.Map(1, 11)
	table.Map(2, 22)
	table.Map(3, 33)
	var u IOMMU
	buf := []mem.PFN{1, 2, 3}
	if u.CheckFirstTouchConflict(table, buf) {
		t.Fatal("fully mapped buffer reported a conflict")
	}
	table.Invalidate(2) // first-touch released this page
	if !u.CheckFirstTouchConflict(table, buf) {
		t.Fatal("invalidated buffer page not detected")
	}
}

func TestPathString(t *testing.T) {
	if PathNative.String() != "native" || PathPassthrough.String() != "passthrough" || PathDom0.String() != "dom0" {
		t.Fatal("path strings wrong")
	}
}
