package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/numa"
)

func testLoad(t *testing.T) (*numa.Topology, *EpochLoad) {
	t.Helper()
	topo := numa.AMD48Scaled(1)
	return topo, NewEpochLoad(topo, 0.005, 13*(1<<30))
}

func TestRelStdDev(t *testing.T) {
	if got := RelStdDev([]float64{1, 1, 1, 1}); got != 0 {
		t.Fatalf("uniform RSD = %v", got)
	}
	if got := RelStdDev(nil); got != 0 {
		t.Fatalf("empty RSD = %v", got)
	}
	if got := RelStdDev([]float64{0, 0}); got != 0 {
		t.Fatalf("zero RSD = %v", got)
	}
	// All mass on one of 8 nodes: RSD = √7 × 100 ≈ 264.6 % — the
	// paper's maximum imbalance (ep.D at 263 % is near this bound).
	xs := make([]float64, 8)
	xs[0] = 1000
	got := RelStdDev(xs)
	if math.Abs(got-264.575) > 0.01 {
		t.Fatalf("concentrated RSD = %v, want 264.575", got)
	}
}

// TestQuickRelStdDevBounds: the RSD of a non-negative distribution over
// n cells is bounded by √(n−1)·100.
func TestQuickRelStdDevBounds(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		got := RelStdDev(xs)
		limit := 100*math.Sqrt(float64(len(xs)-1)) + 1e-9
		return got >= 0 && got <= limit
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		imb  float64
		want ImbalanceClass
	}{
		{7, ClassLow}, {84.9, ClassLow},
		{85, ClassModerate}, {113, ClassModerate}, {130, ClassModerate},
		{131, ClassHigh}, {263, ClassHigh},
	}
	for _, c := range cases {
		if got := Classify(c.imb); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.imb, got, c.want)
		}
	}
}

func TestCtrlUtil(t *testing.T) {
	_, l := testLoad(t)
	// 13 GiB/s × 5 ms = 69.8 MB per epoch; at 64 B per access full
	// utilization is ~1.09M accesses.
	full := 13 * float64(1<<30) * 0.005 / CacheLine
	l.AddAccesses(0, 0, full/2)
	u := l.CtrlUtil(0)
	if u < 0.49 || u > 0.51 {
		t.Fatalf("CtrlUtil = %v, want 0.5", u)
	}
	l.AddAccesses(1, 0, full)
	if l.CtrlUtil(0) != 1 {
		t.Fatal("CtrlUtil not clamped at 1")
	}
	if l.CtrlUtil(1) != 0 {
		t.Fatal("unused controller loaded")
	}
}

func TestFillCtrlUtil(t *testing.T) {
	topo, l := testLoad(t)
	full := 13 * float64(1<<30) * 0.005 / CacheLine
	l.AddAccesses(0, 0, full/2)
	l.AddAccesses(1, 3, full/4)
	dst := make([]float64, topo.NumNodes())
	l.FillCtrlUtil(dst)
	for n := range dst {
		if want := l.CtrlUtil(numa.NodeID(n)); dst[n] != want {
			t.Fatalf("FillCtrlUtil[%d] = %v, want %v", n, dst[n], want)
		}
	}
	if dst[0] == 0 || dst[3] == 0 {
		t.Fatalf("loaded controllers read as idle: %v", dst)
	}
}

func TestLinkUtilOnlyRemote(t *testing.T) {
	_, l := testLoad(t)
	l.AddAccesses(0, 0, 1e6)
	if l.MaxLinkUtil() != 0 {
		t.Fatal("local accesses loaded a link")
	}
	l.AddAccesses(0, 7, 1e6)
	if l.MaxLinkUtil() <= 0 {
		t.Fatal("remote accesses loaded no link")
	}
}

func TestPathLinkUtil(t *testing.T) {
	topo, l := testLoad(t)
	l.AddAccesses(0, 7, 1e7)
	if got := l.PathLinkUtil(0, 0); got != 0 {
		t.Fatalf("self path util = %v", got)
	}
	if got := l.PathLinkUtil(0, 7); got <= 0 {
		t.Fatal("loaded path reports zero")
	}
	_ = topo
}

func TestDMALoadsControllerAndLinks(t *testing.T) {
	_, l := testLoad(t)
	l.AddDMA(6, 0, 1e8)
	if l.CtrlUtil(0) <= 0 {
		t.Fatal("DMA did not load the target controller")
	}
	if l.MaxLinkUtil() <= 0 {
		t.Fatal("cross-node DMA did not load links")
	}
}

func TestReset(t *testing.T) {
	_, l := testLoad(t)
	l.AddAccesses(0, 7, 1e6)
	l.AddDMA(6, 0, 1e8)
	l.Reset()
	if l.CtrlUtil(0) != 0 || l.MaxLinkUtil() != 0 || l.NodeAccesses(7) != 0 {
		t.Fatal("Reset left residual load")
	}
}

func TestRunStatsImbalance(t *testing.T) {
	topo, l := testLoad(t)
	s := NewRunStats(topo)
	// All accesses on node 0 → maximal imbalance.
	l.AddAccesses(1, 0, 1e6)
	s.Observe(l)
	if imb := s.Imbalance(); math.Abs(imb-264.575) > 0.1 {
		t.Fatalf("imbalance = %v", imb)
	}
	if s.LocalityRatio() != 0 {
		t.Fatalf("locality = %v, want 0 (all remote)", s.LocalityRatio())
	}
}

func TestRunStatsInterconnectLoadAveragesEpochs(t *testing.T) {
	topo, l := testLoad(t)
	s := NewRunStats(topo)
	l.AddAccesses(0, 7, 1e9) // saturating
	s.Observe(l)
	l.Reset()
	s.Observe(l) // idle epoch
	got := s.InterconnectLoad()
	if got < 49 || got > 51 {
		t.Fatalf("interconnect load = %v, want ~50 (one saturated + one idle epoch)", got)
	}
}

func TestRunStatsLocality(t *testing.T) {
	topo, l := testLoad(t)
	s := NewRunStats(topo)
	l.AddAccesses(0, 0, 750)
	l.AddAccesses(0, 1, 250)
	s.Observe(l)
	if loc := s.LocalityRatio(); math.Abs(loc-0.75) > 1e-9 {
		t.Fatalf("locality = %v, want 0.75", loc)
	}
}

func TestClassString(t *testing.T) {
	if ClassLow.String() != "low" || ClassModerate.String() != "moderate" || ClassHigh.String() != "high" {
		t.Fatal("class strings wrong")
	}
}
