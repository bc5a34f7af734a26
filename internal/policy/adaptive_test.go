package policy

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/numa"
)

// newAdaptiveWindow8 builds the adaptive runtime policy for a 4-node
// machine with an 8-fault window, returning it and its placer.
func newAdaptiveWindow8() (*Policy, *adaptive) {
	a := newAdaptive(4)
	a.window = 8
	return &Policy{kind: Adaptive, placer: a, pageQueue: true}, a
}

// fault drives n not-present faults (distinct pages) into p from
// accessor, continuing the pfn sequence at start.
func fault(p *Policy, d DomainOps, start, n int, accessor numa.NodeID) {
	for i := start; i < start+n; i++ {
		p.HandleFault(d, mem.PFN(i), accessor)
	}
}

// TestAdaptiveSwitchesAfterStableWindows: the probe phase must observe
// at least adaptiveMinChecks windows, and switches exactly once — to
// first-touch, preserving the domain's Carrefour stacking — when two
// consecutive windows' imbalance agrees.
func TestAdaptiveSwitchesAfterStableWindows(t *testing.T) {
	d := newFakeDomain(0, 1, 2, 3)
	d.cfg = Config{Static: Adaptive, Carrefour: true, CarrefourVariant: CarrefourMigrationOnly}
	p, a := newAdaptiveWindow8()

	// One window: stable-looking (least-loaded spreads evenly) but below
	// the minimum number of checks.
	fault(p, d, 0, a.window, 2)
	if len(d.switches) != 0 {
		t.Fatalf("switched after one window (min is %d)", a.minChecks)
	}
	// Second window: imbalance unchanged → switch.
	fault(p, d, a.window, a.window, 2)
	if len(d.switches) != 1 {
		t.Fatalf("switches = %d, want 1", len(d.switches))
	}
	want := Config{Static: FirstTouch, Carrefour: true, CarrefourVariant: CarrefourMigrationOnly}
	if d.switches[0] != want {
		t.Fatalf("switched to %+v, want %+v", d.switches[0], want)
	}
	// Further faults must not switch again.
	fault(p, d, 2*a.window, 2*a.window, 2)
	if len(d.switches) != 1 {
		t.Fatalf("switched again: %d switches", len(d.switches))
	}
}

// TestAdaptiveDegradesWithoutSwitcher: on a domain whose SetPolicy
// hypercall rejects the switch, the decision still takes effect — the
// policy behaves like first-touch in place.
func TestAdaptiveDegradesWithoutSwitcher(t *testing.T) {
	d := newFakeDomain(0, 1, 2, 3)
	d.cfg = Config{Static: Adaptive}
	d.switchErr = errors.New("switch rejected")
	p, a := newAdaptiveWindow8()
	fault(p, d, 0, 2*a.window, 0)
	if !a.switched || len(d.switches) != 1 || d.cfg.Static != Adaptive {
		t.Fatalf("probe stabilized %v, switch requests %v, config %+v; want one rejected request", a.switched, d.switches, d.cfg)
	}
	// The next fault from node 3 must place on the accessor's node
	// (first-touch), not on the least-loaded node.
	pfn := mem.PFN(1000)
	p.HandleFault(d, pfn, 3)
	e := d.table.Lookup(pfn)
	if !e.Valid || d.NodeOfFrame(e.MFN) != 3 {
		t.Fatal("degraded adaptive did not place on the accessor's node")
	}
}

// TestAdaptiveProbePlacesLeastLoaded: before the switch the policy
// places like least-loaded, ignoring the accessor.
func TestAdaptiveProbePlacesLeastLoaded(t *testing.T) {
	d := newFakeDomain(0, 1)
	d.free[1] = 1 << 20 // node 1 has the most free memory
	p, _ := newAdaptiveWindow8()
	p.HandleFault(d, 5, 0)
	e := d.table.Lookup(5)
	if !e.Valid || d.NodeOfFrame(e.MFN) != 1 {
		t.Fatal("probe did not place on the least-loaded node")
	}
}

// TestAdaptiveComparesWindowsNotCumulative: stability is judged on
// per-window histograms. A window whose placement differs sharply from
// the previous one must not switch (a cumulative histogram's imbalance
// would converge by construction and mask the swing); once two
// consecutive windows agree again, the switch fires.
func TestAdaptiveComparesWindowsNotCumulative(t *testing.T) {
	d := newFakeDomain(0, 1, 2, 3)
	d.cfg = Config{Static: Adaptive}
	p, a := newAdaptiveWindow8()
	// Window 1: balanced free memory → even spread, imbalance ~0.
	fault(p, d, 0, a.window, 0)
	// Window 2: node 2 overwhelmingly free → every placement lands
	// there, imbalance ~173. The jump must block the switch.
	d.free[2] = 1 << 40
	fault(p, d, a.window, a.window, 0)
	if len(d.switches) != 0 {
		t.Fatal("switched across a window whose placement swung")
	}
	// Window 3: node 2 still dominates → same imbalance as window 2 →
	// consecutive windows agree → switch.
	fault(p, d, 2*a.window, a.window, 0)
	if len(d.switches) != 1 {
		t.Fatalf("switches = %d, want 1 after two agreeing windows", len(d.switches))
	}
}

// TestAdaptiveHistogramPresized: windows must be compared over
// histograms of the machine's full node count. A window entirely on
// node 0 is maximally imbalanced (RelStdDev over [W,0,0,0]), not
// "balanced" as a length-1 histogram would read, so it must not pair
// with an even window as stable.
func TestAdaptiveHistogramPresized(t *testing.T) {
	d := newFakeDomain(0, 1, 2, 3)
	d.cfg = Config{Static: Adaptive}
	p, a := newAdaptiveWindow8()
	// Window 1: node 0 overwhelmingly free → all placements on node 0.
	d.free[0] = 1 << 40
	fault(p, d, 0, a.window, 1)
	// Window 2: free memory balanced again → even spread. The imbalance
	// swing (265% → 0%) must block the switch.
	d.free[0] = 0
	fault(p, d, a.window, a.window, 1)
	if len(d.switches) != 0 {
		t.Fatal("single-node window compared as balanced: histogram not presized")
	}
}
