package carrefour

import (
	"testing"

	"repro/internal/numa"
)

// fakeSet is an in-memory PageSet.
type fakeSet struct {
	nodes []numa.NodeID
	moves int
}

func newFakeSet(nodes ...numa.NodeID) *fakeSet {
	return &fakeSet{nodes: append([]numa.NodeID(nil), nodes...)}
}

func (s *fakeSet) Len() int                 { return len(s.nodes) }
func (s *fakeSet) NodeOf(i int) numa.NodeID { return s.nodes[i] }
func (s *fakeSet) Migrate(i int, to numa.NodeID) bool {
	if s.nodes[i] == to {
		return false
	}
	s.nodes[i] = to
	s.moves++
	return true
}

func accessors(n int, dominant numa.NodeID, share float64) []float64 {
	out := make([]float64, n)
	rest := (1 - share) / float64(n-1)
	for i := range out {
		out[i] = rest
	}
	out[dominant] = share
	return out
}

func uniform(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 / float64(n)
	}
	return out
}

func TestInterleaveMovesFromOverloadedNode(t *testing.T) {
	c := new(Controller)
	set := newFakeSet(0, 0, 0, 0, 0, 0, 0, 0)
	tick := Tick{
		CtrlUtil: []float64{0.9, 0.05, 0.05, 0.05},
		Samples:  []Sample{{Set: set, AccessShare: 0.8, Accessors: uniform(4)}},
	}
	if c.Step(tick) == 0 || set.moves == 0 {
		t.Fatal("overloaded controller triggered no interleaving")
	}
	still := 0
	for _, n := range set.nodes {
		if n == 0 {
			still++
		}
	}
	if still != 0 {
		t.Fatalf("%d pages left on the overloaded node", still)
	}
	// Destinations must be spread across underloaded nodes.
	seen := map[numa.NodeID]bool{}
	for _, n := range set.nodes {
		seen[n] = true
	}
	if len(seen) < 2 {
		t.Fatalf("interleaving used a single destination: %v", set.nodes)
	}
}

func TestInterleaveNeedsImbalance(t *testing.T) {
	c := new(Controller)
	set := newFakeSet(0, 1, 2, 3)
	tick := Tick{
		// Uniformly saturated: interleaving gains nothing.
		CtrlUtil: []float64{0.9, 0.9, 0.9, 0.9},
		Samples:  []Sample{{Set: set, AccessShare: 1, Accessors: uniform(4)}},
	}
	if c.Step(tick); set.moves != 0 {
		t.Fatal("interleaved on a balanced machine")
	}
}

func TestLocalityMigrationOnLinkSaturation(t *testing.T) {
	c := new(Controller)
	set := newFakeSet(2, 2, 2, 2)
	tick := Tick{
		CtrlUtil:    []float64{0.1, 0.1, 0.1, 0.1},
		MaxLinkUtil: 0.5,
		Samples:     []Sample{{Set: set, AccessShare: 0.5, Accessors: accessors(4, 0, 0.9)}},
	}
	if n := c.Step(tick); n != 4 || set.moves != 4 {
		t.Fatalf("locality moves = %d (set saw %d), want 4", n, set.moves)
	}
	for _, n := range set.nodes {
		if n != 0 {
			t.Fatalf("page not moved to the dominant accessor: %v", set.nodes)
		}
	}
}

func TestLocalityMigrationNeedsDominantAccessor(t *testing.T) {
	c := new(Controller)
	set := newFakeSet(2, 2)
	tick := Tick{
		CtrlUtil:    []float64{0, 0, 0, 0},
		MaxLinkUtil: 0.5,
		Samples:     []Sample{{Set: set, AccessShare: 0.5, Accessors: uniform(4)}},
	}
	if c.Step(tick); set.moves != 0 {
		t.Fatal("migrated a shared set")
	}
}

func TestNoActionBelowThresholds(t *testing.T) {
	c := new(Controller)
	set := newFakeSet(0, 1, 2, 3)
	tick := Tick{
		CtrlUtil:    []float64{0.1, 0.1, 0.1, 0.1},
		MaxLinkUtil: 0.1,
		Samples:     []Sample{{Set: set, AccessShare: 1, Accessors: accessors(4, 0, 1)}},
	}
	if c.Step(tick) != 0 || set.moves != 0 {
		t.Fatal("idle machine triggered migrations")
	}
}

func TestBudgetCapsMigrations(t *testing.T) {
	c := new(Controller)
	nodes := make([]numa.NodeID, budgetPages+100)
	set := newFakeSet(nodes...) // all on node 0
	tick := Tick{
		CtrlUtil: []float64{0.9, 0.05, 0.05, 0.05},
		Samples:  []Sample{{Set: set, AccessShare: 1, Accessors: uniform(4)}},
	}
	if n := c.Step(tick); n != budgetPages || set.moves != budgetPages {
		t.Fatalf("migrated %d (set saw %d), want budget %d", n, set.moves, budgetPages)
	}
}

func TestHotSetsConsideredFirst(t *testing.T) {
	c := new(Controller)
	cold := newFakeSet(make([]numa.NodeID, budgetPages)...)
	hot := newFakeSet(make([]numa.NodeID, budgetPages)...)
	tick := Tick{
		CtrlUtil: []float64{0.9, 0.05, 0.05, 0.05},
		Samples: []Sample{
			{Set: cold, AccessShare: 0.4, Accessors: uniform(4)},
			{Set: hot, AccessShare: 0.1, Accessors: uniform(4), Hot: true},
		},
	}
	c.Step(tick)
	if hot.moves != budgetPages || cold.moves != 0 {
		t.Fatalf("hot moves = %d, cold moves = %d; hot set must go first", hot.moves, cold.moves)
	}
}

func TestSplitByLoad(t *testing.T) {
	var c Controller
	over, under := c.splitByLoad([]float64{0.9, 0.1, 0.1, 0.1})
	if len(over) != 1 || over[0] != 0 {
		t.Fatalf("over = %v", over)
	}
	if len(under) != 3 {
		t.Fatalf("under = %v", under)
	}
}

func TestDominantNode(t *testing.T) {
	n, share := dominantNode([]float64{0.1, 0.7, 0.2})
	if n != 1 || share != 0.7 {
		t.Fatalf("dominant = %d/%v", n, share)
	}
}

func TestCountersAccumulate(t *testing.T) {
	c := new(Controller)
	set := newFakeSet(0, 0, 0, 0)
	tick := Tick{
		CtrlUtil: []float64{0.9, 0.05, 0.05, 0.05},
		Samples:  []Sample{{Set: set, AccessShare: 1, Accessors: uniform(4)}},
	}
	c.Step(tick)
	if c.Ticks != 1 || c.Interleaved == 0 || c.LocalityMoved != 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// replicaSet is a fakeSet that also supports replication.
type replicaSet struct {
	*fakeSet
	replicated bool
}

func (s *replicaSet) Replicate() { s.replicated = true }

// TestModesGateHeuristics: the §7 variant knobs restrict the controller
// to one mechanism. The tick triggers every heuristic at once
// (overloaded+imbalanced controllers, saturated link, hot read-only set
// with a dominant accessor elsewhere than its pages); each mode must
// run exactly its own subset. ModeFull, the paper's port, never
// replicates (§3.4).
func TestModesGateHeuristics(t *testing.T) {
	cases := []struct {
		mode                      Mode
		interleave, migrate, repl bool
	}{
		{ModeFull, true, true, false},
		{ModeMigrationOnly, false, true, false},
		{ModeReplicationOnly, false, false, true},
	}
	for _, tc := range cases {
		c := new(Controller)
		c.Reset(tc.mode)
		// Hot read-only multi-accessor set (replication target) plus a
		// single-accessor remote set (migration target), pages on the
		// overloaded node 0 (interleave target). Only interleaving moves
		// the multi-accessor set; locality migration leaves every page of
		// the remote set on its accessor, node 1.
		hot := &replicaSet{fakeSet: newFakeSet(0, 0)}
		remote := newFakeSet(0, 0, 0, 0)
		tick := Tick{
			CtrlUtil:    []float64{0.9, 0.05, 0.05, 0.05},
			MaxLinkUtil: 0.5,
			Samples: []Sample{
				{Set: hot, AccessShare: 0.5, Accessors: uniform(4), Hot: true, ReadOnly: true},
				{Set: remote, AccessShare: 0.4, Accessors: accessors(4, 1, 0.9)},
			},
		}
		c.Step(tick)
		if got := hot.moves > 0; got != tc.interleave {
			t.Errorf("%v: interleave moved %d hot pages, want active=%v", tc.mode, hot.moves, tc.interleave)
		}
		local := true
		for _, n := range remote.nodes {
			local = local && n == 1
		}
		if local != tc.migrate {
			t.Errorf("%v: remote set on %v, want locality migration active=%v", tc.mode, remote.nodes, tc.migrate)
		}
		if hot.replicated != tc.repl {
			t.Errorf("%v: replicated=%v, want %v", tc.mode, hot.replicated, tc.repl)
		}
	}
}

func TestReplicationHeuristic(t *testing.T) {
	c := new(Controller)
	c.Reset(ModeReplicationOnly)
	set := &replicaSet{fakeSet: newFakeSet(0, 0)}
	tick := Tick{
		CtrlUtil:    []float64{0.1, 0.1, 0.1, 0.1},
		MaxLinkUtil: 0.5,
		Samples: []Sample{{
			Set: set, AccessShare: 0.5, Accessors: uniform(4),
			Hot: true, ReadOnly: true,
		}},
	}
	if n := c.Step(tick); n != 0 || !set.replicated || set.moves != 0 {
		t.Fatalf("read-only hot set: replicated=%v, %d pages moved (step reported %d); want replicated, none moved", set.replicated, set.moves, n)
	}
}

func TestReplicationRequiresReadOnlyAndMultiAccessor(t *testing.T) {
	c := new(Controller)
	c.Reset(ModeReplicationOnly)
	step := func(readonly bool, acc []float64) bool {
		set := &replicaSet{fakeSet: newFakeSet(3, 3)}
		c.Step(Tick{
			CtrlUtil:    []float64{0, 0, 0, 0},
			MaxLinkUtil: 0.5,
			Samples: []Sample{{
				Set: set, AccessShare: 0.5,
				Accessors: acc, Hot: true, ReadOnly: readonly,
			}},
		})
		return set.replicated
	}
	if step(false, uniform(4)) {
		t.Fatal("replicated a writable set")
	}
	if step(true, accessors(4, 2, 0.95)) {
		t.Fatal("replicated a single-accessor set (migration is cheaper)")
	}
}

func TestReplicationOffByDefault(t *testing.T) {
	// The paper discards the heuristic; a zero controller must not
	// replicate.
	c := new(Controller)
	set := &replicaSet{fakeSet: newFakeSet(0)}
	tick := Tick{
		CtrlUtil:    []float64{0, 0, 0, 0},
		MaxLinkUtil: 0.9,
		Samples: []Sample{{
			Set: set, AccessShare: 0.9, Accessors: uniform(4), Hot: true, ReadOnly: true,
		}},
	}
	if c.Step(tick); set.replicated {
		t.Fatal("zero controller replicated (§3.4 discards it)")
	}
}
