// Package iosim models the I/O subsystem: the three DMA paths of §2.2
// (native, PCI passthrough with IOMMU, dom0-mediated), their per-request
// latencies, the throughput they sustain for streaming workloads, the
// NUMA placement of DMA buffers, and the IOMMU's inability to resolve
// invalid hypervisor page-table entries that makes it incompatible with
// the first-touch policy (§4.4.1).
package iosim

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/pt"
	"repro/internal/sim"
)

// Path is a DMA path.
type Path int

const (
	// PathNative is an unvirtualized OS driving the device directly.
	PathNative Path = iota
	// PathPassthrough is a domU using the PCI passthrough driver: the
	// device translates guest physical addresses through the IOMMU and
	// writes guest memory directly.
	PathPassthrough
	// PathDom0 is the para-virtualized split-driver path: the domU
	// forwards requests to dom0, which performs the I/O and copies the
	// result back.
	PathDom0
)

func (p Path) String() string {
	switch p {
	case PathNative:
		return "native"
	case PathPassthrough:
		return "passthrough"
	case PathDom0:
		return "dom0"
	default:
		return fmt.Sprintf("Path(%d)", int(p))
	}
}

// Request latency for one 4 KiB O_DIRECT read, calibrated to the paper's
// measurements (§2.2.2): 74 µs native, 186 µs with the passthrough
// driver, 307 µs through dom0.
func (p Path) Read4KLatency() sim.Time {
	switch p {
	case PathNative:
		return 74 * sim.Microsecond
	case PathPassthrough:
		return 186 * sim.Microsecond
	case PathDom0:
		return 307 * sim.Microsecond
	default:
		panic("iosim: unknown path")
	}
}

// Disk describes the physical device.
type Disk struct {
	// StreamBps is the device's sustained transfer bandwidth.
	StreamBps float64
	// Node is the NUMA node whose PCI bus hosts the device.
	Node numa.NodeID
}

// DefaultDisk returns the benchmark disk of AMD48 (on node 6's bus),
// sized so the fastest X-Stream readers (~260 MB/s, Table 2) run close
// to device speed natively.
func DefaultDisk() Disk {
	return Disk{StreamBps: 280e6, Node: 6}
}

// StreamCap returns the streaming capacity of the path for pipelined
// sequential I/O. The dom0 path is bounded by the split-driver ring and
// the copy through dom0; the passthrough path runs close to device
// speed. (The per-request Read4KLatency model above explains these caps:
// small-request software cost dominates the dom0 path.)
//
//xnuma:noalloc
func (p Path) StreamCap(d Disk) float64 {
	switch p {
	case PathNative:
		return d.StreamBps
	case PathPassthrough:
		return 0.92 * d.StreamBps
	case PathDom0:
		return 90e6
	default:
		panic("iosim: unknown path")
	}
}

// SingleNodeCapFactor is the throughput penalty of funneling all DMA
// into one physically contiguous buffer on a single node (§5.3.3: Linux
// allocates DMA buffers contiguously, so one node's controller absorbs
// the whole stream; Xen's hypervisor page table scatters them).
const SingleNodeCapFactor = 0.86

// BufferPlacement describes where DMA target pages live, which decides
// which memory controllers absorb the traffic (§5.3.3: Linux allocates a
// physically contiguous buffer on one node; Xen's hypervisor page table
// scatters the guest's "contiguous" buffer across nodes).
type BufferPlacement int

const (
	// BufferSingleNode concentrates DMA traffic on one node.
	BufferSingleNode BufferPlacement = iota
	// BufferScattered spreads DMA traffic over the home nodes.
	BufferScattered
)

// Stream is one application's steady-state disk activity.
type Stream struct {
	DemandBps float64 // what the app consumes when unimpeded
	Placement BufferPlacement
	// BufferNode is the target node for BufferSingleNode.
	BufferNode numa.NodeID
	// HomeNodes are the targets for BufferScattered.
	HomeNodes []numa.NodeID
	// Penalty is an extra divisor on the virtualized path capacity for
	// applications that hit pathological virtual-I/O behaviour the paper
	// could not fully attribute (psearchy, §5.5).
	Penalty float64
}

// Delivered returns the bytes/s the stream actually receives on path p
// and the resulting progress factor (delivered/demand, ≤ 1) for the
// application's threads.
//
//xnuma:noalloc
func (s Stream) Delivered(p Path, d Disk) (bps, progress float64) {
	if s.DemandBps <= 0 {
		return 0, 1
	}
	limit := p.StreamCap(d)
	if s.Placement == BufferSingleNode {
		limit *= SingleNodeCapFactor
	}
	if p != PathNative && s.Penalty > 1 {
		limit /= s.Penalty
	}
	bps = s.DemandBps
	if limit < bps {
		bps = limit
	}
	return bps, bps / s.DemandBps
}

// IOMMU models the hardware translation unit used by the passthrough
// path.
type IOMMU struct {
	// Faults counts aborted translations (invalid entries).
	Faults uint64
}

// Translate performs a device-side translation of one guest physical
// page through the domain's hypervisor page table. Unlike a CPU access,
// the IOMMU cannot wait for software to resolve a fault: an invalid
// entry aborts the DMA and the error is delivered asynchronously —
// usually after the guest OS has already failed the I/O (§4.4.1). The
// returned ok is false in that case.
func (u *IOMMU) Translate(table *pt.HypervisorTable, pfn mem.PFN) (mem.MFN, bool) {
	mfn, ok := table.TranslateNoFault(pfn)
	if !ok {
		u.Faults++
	}
	return mfn, ok
}

// CheckFirstTouchConflict scans a DMA buffer through the IOMMU and
// reports whether any page would abort the transfer. With the first-touch
// policy active, freshly released pages have invalid entries, so a
// buffer allocated from the free list fails — the structural reason the
// paper disables the IOMMU under first-touch.
func (u *IOMMU) CheckFirstTouchConflict(table *pt.HypervisorTable, buf []mem.PFN) (aborted bool) {
	for _, p := range buf {
		if _, ok := u.Translate(table, p); !ok {
			return true
		}
	}
	return false
}
