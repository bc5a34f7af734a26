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
	c := New(DefaultConfig())
	set := newFakeSet(0, 0, 0, 0, 0, 0, 0, 0)
	tick := Tick{
		CtrlUtil: []float64{0.9, 0.05, 0.05, 0.05},
		Samples:  []Sample{{Set: set, AccessShare: 0.8, Accessors: uniform(4)}},
	}
	res := c.Step(tick)
	if res.InterleaveMoves == 0 {
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
	c := New(DefaultConfig())
	set := newFakeSet(0, 1, 2, 3)
	tick := Tick{
		// Uniformly saturated: interleaving gains nothing.
		CtrlUtil: []float64{0.9, 0.9, 0.9, 0.9},
		Samples:  []Sample{{Set: set, AccessShare: 1, Accessors: uniform(4)}},
	}
	if res := c.Step(tick); res.InterleaveMoves != 0 {
		t.Fatal("interleaved on a balanced machine")
	}
}

func TestLocalityMigrationOnLinkSaturation(t *testing.T) {
	c := New(DefaultConfig())
	set := newFakeSet(2, 2, 2, 2)
	tick := Tick{
		CtrlUtil:    []float64{0.1, 0.1, 0.1, 0.1},
		MaxLinkUtil: 0.5,
		Samples:     []Sample{{Set: set, AccessShare: 0.5, Accessors: accessors(4, 0, 0.9)}},
	}
	res := c.Step(tick)
	if res.LocalityMoves != 4 {
		t.Fatalf("locality moves = %d, want 4", res.LocalityMoves)
	}
	for _, n := range set.nodes {
		if n != 0 {
			t.Fatalf("page not moved to the dominant accessor: %v", set.nodes)
		}
	}
}

func TestLocalityMigrationNeedsDominantAccessor(t *testing.T) {
	c := New(DefaultConfig())
	set := newFakeSet(2, 2)
	tick := Tick{
		CtrlUtil:    []float64{0, 0, 0, 0},
		MaxLinkUtil: 0.5,
		Samples:     []Sample{{Set: set, AccessShare: 0.5, Accessors: uniform(4)}},
	}
	if res := c.Step(tick); res.LocalityMoves != 0 {
		t.Fatal("migrated a shared set")
	}
}

func TestNoActionBelowThresholds(t *testing.T) {
	c := New(DefaultConfig())
	set := newFakeSet(0, 1, 2, 3)
	tick := Tick{
		CtrlUtil:    []float64{0.1, 0.1, 0.1, 0.1},
		MaxLinkUtil: 0.1,
		Samples:     []Sample{{Set: set, AccessShare: 1, Accessors: accessors(4, 0, 1)}},
	}
	if res := c.Step(tick); res.Migrated != 0 {
		t.Fatal("idle machine triggered migrations")
	}
}

func TestBudgetCapsMigrations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BudgetPages = 3
	c := New(cfg)
	nodes := make([]numa.NodeID, 100)
	set := newFakeSet(nodes...) // all on node 0
	tick := Tick{
		CtrlUtil: []float64{0.9, 0.05, 0.05, 0.05},
		Samples:  []Sample{{Set: set, AccessShare: 1, Accessors: uniform(4)}},
	}
	if res := c.Step(tick); res.Migrated != 3 {
		t.Fatalf("migrated %d, want budget 3", res.Migrated)
	}
}

func TestHotSetsConsideredFirst(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BudgetPages = 2
	c := New(cfg)
	cold := newFakeSet(0, 0)
	hot := newFakeSet(0, 0)
	tick := Tick{
		CtrlUtil: []float64{0.9, 0.05, 0.05, 0.05},
		Samples: []Sample{
			{Set: cold, AccessShare: 0.4, Accessors: uniform(4)},
			{Set: hot, AccessShare: 0.1, Accessors: uniform(4), Hot: true},
		},
	}
	c.Step(tick)
	if hot.moves != 2 || cold.moves != 0 {
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
	c := New(DefaultConfig())
	set := newFakeSet(0, 0, 0, 0)
	tick := Tick{
		CtrlUtil: []float64{0.9, 0.05, 0.05, 0.05},
		Samples:  []Sample{{Set: set, AccessShare: 1, Accessors: uniform(4)}},
	}
	c.Step(tick)
	if c.Ticks != 1 || c.InterleaveTicks != 1 || c.Interleaved == 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// replSet is a fakeSet that also supports replication.
type replSet struct {
	*fakeSet
	replicated bool
}

func (s *replSet) Replicate() bool {
	if s.replicated {
		return false
	}
	s.replicated = true
	return true
}

// TestModesGateHeuristics: the §7 variant knobs restrict the controller
// to one mechanism. The tick triggers every heuristic at once
// (overloaded+imbalanced controllers, saturated link, hot read-only set
// with a dominant accessor elsewhere than its pages); each mode must
// run exactly its own subset.
func TestModesGateHeuristics(t *testing.T) {
	cases := []struct {
		mode                      Mode
		interleave, migrate, repl bool
	}{
		{ModeFull, true, true, true},
		{ModeMigrationOnly, false, true, false},
		{ModeReplicationOnly, false, false, true},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Mode = tc.mode
		cfg.EnableReplication = true
		c := New(cfg)
		// Hot read-only multi-accessor set (replication target) plus a
		// single-accessor remote set (migration target), pages on the
		// overloaded node 0 (interleave target).
		hot := &replSet{fakeSet: newFakeSet(0, 0)}
		remote := newFakeSet(0, 0, 0, 0)
		tick := Tick{
			CtrlUtil:    []float64{0.9, 0.05, 0.05, 0.05},
			MaxLinkUtil: 0.5,
			Samples: []Sample{
				{Set: hot, AccessShare: 0.5, Accessors: uniform(4), Hot: true, ReadOnly: true},
				{Set: remote, AccessShare: 0.4, Accessors: accessors(4, 1, 0.9)},
			},
		}
		res := c.Step(tick)
		if got := res.InterleaveMoves > 0; got != tc.interleave {
			t.Errorf("%v: interleave moves %d, want active=%v", tc.mode, res.InterleaveMoves, tc.interleave)
		}
		if got := res.LocalityMoves > 0; got != tc.migrate {
			t.Errorf("%v: locality moves %d, want active=%v", tc.mode, res.LocalityMoves, tc.migrate)
		}
		if hot.replicated != tc.repl {
			t.Errorf("%v: replicated=%v, want %v", tc.mode, hot.replicated, tc.repl)
		}
	}
}

// TestFullModeRespectsEnableReplication: ModeFull without
// EnableReplication must not replicate (the paper's port leaves
// replication out by default, §3.4); only the replication-only variant
// implies the flag, at the engine layer.
func TestFullModeRespectsEnableReplication(t *testing.T) {
	cfg := DefaultConfig() // EnableReplication off
	c := New(cfg)
	hot := &replSet{fakeSet: newFakeSet(0, 0)}
	tick := Tick{
		CtrlUtil:    []float64{0.1, 0.1, 0.1, 0.1},
		MaxLinkUtil: 0.5,
		Samples:     []Sample{{Set: hot, AccessShare: 0.5, Accessors: uniform(4), Hot: true, ReadOnly: true}},
	}
	c.Step(tick)
	if hot.replicated {
		t.Fatal("replicated with EnableReplication off")
	}
}

// replicaSet extends fakeSet with replication.
type replicaSet struct {
	fakeSet
	replicated bool
}

func (r *replicaSet) Replicate() bool {
	if r.replicated {
		return false
	}
	r.replicated = true
	return true
}

func TestReplicationHeuristic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableReplication = true
	c := New(cfg)
	set := &replicaSet{fakeSet: *newFakeSet(0, 0)}
	tick := Tick{
		CtrlUtil:    []float64{0.1, 0.1, 0.1, 0.1},
		MaxLinkUtil: 0.5,
		Samples: []Sample{{
			Set: set, AccessShare: 0.5, Accessors: uniform(4),
			Hot: true, ReadOnly: true,
		}},
	}
	res := c.Step(tick)
	if res.Replications != 1 || !set.replicated {
		t.Fatalf("read-only hot set not replicated: %+v", res)
	}
	// Idempotent on the next tick.
	if res := c.Step(tick); res.Replications != 0 {
		t.Fatal("set replicated twice")
	}
}

func TestReplicationRequiresReadOnlyAndMultiAccessor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableReplication = true
	c := New(cfg)
	mk := func(readonly bool, acc []float64) Tick {
		return Tick{
			CtrlUtil:    []float64{0, 0, 0, 0},
			MaxLinkUtil: 0.5,
			Samples: []Sample{{
				Set: &replicaSet{fakeSet: *newFakeSet(3, 3)}, AccessShare: 0.5,
				Accessors: acc, Hot: true, ReadOnly: readonly,
			}},
		}
	}
	if res := c.Step(mk(false, uniform(4))); res.Replications != 0 {
		t.Fatal("replicated a writable set")
	}
	if res := c.Step(mk(true, accessors(4, 2, 0.95))); res.Replications != 0 {
		t.Fatal("replicated a single-accessor set (migration is cheaper)")
	}
}

func TestReplicationOffByDefault(t *testing.T) {
	// The paper discards the heuristic; the default configuration must
	// not replicate.
	c := New(DefaultConfig())
	set := &replicaSet{fakeSet: *newFakeSet(0)}
	tick := Tick{
		CtrlUtil:    []float64{0, 0, 0, 0},
		MaxLinkUtil: 0.9,
		Samples: []Sample{{
			Set: set, AccessShare: 0.9, Accessors: uniform(4), Hot: true, ReadOnly: true,
		}},
	}
	if res := c.Step(tick); res.Replications != 0 || set.replicated {
		t.Fatal("default configuration replicated (§3.4 discards it)")
	}
	_ = numa.NodeID(0)
}
