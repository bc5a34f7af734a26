package policy

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/numa"
)

// The adaptive policy is the in-hypervisor form of the paper's §3.5.2
// advisor rule. The paper derives the rule from a cheap profiling run —
// measure the placement behaviour, then commit to a policy — and closes
// by noting that automatic selection inside the hypervisor remains open
// (§7). This policy runs the probe inside the hypervisor itself: it
// starts placing like least-loaded (spreading by free memory, a safe
// default on an empty machine) while measuring the imbalance of its own
// placements, and once that imbalance is stable across consecutive
// fault windows it replaces itself with first-touch through the same
// HypercallSetPolicy entry point a guest would use, so the switch is
// observable in the domain's configuration like any external one.

const (
	// adaptiveWindow is the number of resolved faults between imbalance
	// checks of the probe phase.
	adaptiveWindow = 256
	// adaptiveStableDelta is the largest change, in percentage points of
	// relative standard deviation, between two consecutive windows'
	// placement imbalance still considered "stable".
	adaptiveStableDelta = 10.0
	// adaptiveMinChecks is the number of windows the probe must observe
	// before it may declare stability (the first window has nothing to
	// compare against).
	adaptiveMinChecks = 2
)

// registerAdaptive is called from builtin.go's init so the adaptive
// policy registers after the paper's three static policies (listings
// and sweeps follow registration order).
func registerAdaptive() {
	Register(Descriptor{
		Name:    "adaptive",
		Aliases: []string{"ad"},
		Abbrev:  "AD",
		Fault:   "probes least-loaded, switches itself to first-touch once imbalance stabilizes",
		// Carrefour may stack: the probe phase benefits from it exactly
		// like least-loaded does, and it survives the internal switch.
		Carrefour: true,
		// The first-touch phase consumes release notifications, so the
		// queue must be active from boot (and passthrough off, §4.4.1).
		UsesPageQueue: true,
		New:           func(_ string, nodes int) (Placer, error) { return newAdaptive(nodes), nil },
	})
}

// adaptive probes with least-loaded placement and histograms the node
// it chose for each page. Once the imbalance of two consecutive windows
// agrees it places like first-touch, and successor asks the fault path
// to switch a Xen domain to first-touch through the SetPolicy
// hypercall. Natively, or when the domain rejects the hypercall, the
// switch stays inside the placer.
type adaptive struct {
	// placed histograms the *current window's* placements only: the
	// stability test must compare windows against each other, not a
	// cumulative histogram (whose imbalance converges by construction
	// as 1/n even while per-window placement still swings). It is
	// presized to the machine's node count — windows must be compared
	// over histograms of the same length, or a window concentrated on
	// low node ids reads as balanced.
	placed   []float64
	faults   int
	checks   int
	prevImb  float64
	switched bool
	// handoff is raised with switched and cleared by successor, so the
	// hypercall is requested exactly once.
	handoff bool
}

// newAdaptive builds the placer for a machine with nodes nodes.
func newAdaptive(nodes int) *adaptive {
	return &adaptive{placed: make([]float64, nodes)}
}

func (p *adaptive) PlaceNode(accessor numa.NodeID, homes []numa.NodeID, free FreeMemory) numa.NodeID {
	if p.switched {
		return accessor
	}
	n := leastLoaded{}.PlaceNode(accessor, homes, free)
	p.placed[n]++
	p.faults++
	if p.stable() {
		p.switched, p.handoff = true, true
	}
	return n
}

// successor requests the switch to first-touch once, on the placement
// that stabilized the probe.
func (p *adaptive) successor() (Kind, bool) {
	due := p.handoff
	p.handoff = false
	return FirstTouch, due
}

// stable reports whether the probe phase just completed a window whose
// placement imbalance moved at most adaptiveStableDelta percentage
// points since the previous window's. Each window is measured on its
// own histogram.
func (p *adaptive) stable() bool {
	if p.faults%adaptiveWindow != 0 {
		return false
	}
	imb := metrics.RelStdDev(p.placed)
	for i := range p.placed {
		p.placed[i] = 0
	}
	p.checks++
	ok := p.checks >= adaptiveMinChecks && math.Abs(imb-p.prevImb) <= adaptiveStableDelta
	p.prevImb = imb
	return ok
}
