package engine

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/numa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRefreshStreamsFoldSkip checks the steady-state fast path: when no
// region mutated (every gen counter unchanged) and no thread finished,
// refreshStreams must return without touching the folded rows, and any
// of those conditions changing — or a cleared foldValid, as a new run
// starts with — must rebuild them.
func TestRefreshStreamsFoldSkip(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	in := &Instance{Prof: testProfile(), Backend: newStub(topo, false), NThreads: 4}
	r := &Runner{}
	if err := r.setup(testConfig(topo), in); err != nil {
		t.Fatal(err)
	}
	in.refreshStreams()
	orig := in.rows[0]
	// Poke a sentinel into the rows: a skipped refresh leaves it, a
	// rebuild overwrites it (folded shares are never negative).
	in.rows[0] = -1
	in.refreshStreams()
	if in.rows[0] != -1 {
		t.Fatal("refreshStreams rebuilt despite unchanged gens and live count")
	}
	// Without a valid fold there is nothing to skip to.
	in.foldValid = false
	in.refreshStreams()
	if in.rows[0] != orig {
		t.Fatalf("refresh after clearing foldValid left rows[0] = %v, want %v", in.rows[0], orig)
	}
	// A placement mutation bumps the region gen and defeats the skip.
	in.rows[0] = -1
	in.hot.Replicate()
	in.refreshStreams()
	if in.rows[0] == -1 {
		t.Fatal("refreshStreams skipped after a placement mutation")
	}
	// A thread finishing changes the live count and defeats the skip.
	in.rows[0] = -1
	in.Threads[3].Done = true
	in.refreshStreams()
	if in.rows[0] == -1 {
		t.Fatal("refreshStreams skipped after a thread finished")
	}
}

// TestRunnerRowArena pins the per-instance row buffers: each instance
// folds its rows into its own NThreads × nodes buffer, disjoint from
// every other instance's, refills that buffer in place on later folds,
// and keeps it when it runs again, as a pooled instance does.
func TestRunnerRowArena(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	nn := topo.NumNodes()
	a := &Instance{Prof: testProfile(), Backend: newStub(topo, false), NThreads: 3}
	b := &Instance{Prof: testProfile(), Backend: newStub(topo, false), NThreads: 5}
	r := &Runner{}
	if err := r.setup(testConfig(topo), a, b); err != nil {
		t.Fatal(err)
	}
	a.refreshStreams()
	b.refreshStreams()
	if len(a.rows) != 3*nn || len(b.rows) != 5*nn {
		t.Fatalf("rows len = %d, %d, want %d, %d", len(a.rows), len(b.rows), 3*nn, 5*nn)
	}
	// Disjoint: a sentinel written through one instance's rows never
	// shows up in the other's.
	for i := range a.rows {
		a.rows[i] = -1
	}
	for i, v := range b.rows {
		if v == -1 {
			t.Fatalf("instance 1 row cell %d aliases instance 0's rows", i)
		}
	}
	// Refilled in place: a rebuild after a placement mutation writes
	// the same buffer.
	rowsA, rowsB := &a.rows[0], &b.rows[0]
	a.hot.Replicate()
	a.refreshStreams()
	if &a.rows[0] != rowsA || a.rows[0] == -1 {
		t.Fatal("foldRows did not refill instance 0's buffer in place")
	}
	// Reused by a re-run, at the same thread count and at a smaller
	// one: Run rebuilds the instance in place and folds into the same
	// buffer.
	for _, threads := range []int{5, 4} {
		b.NThreads = threads
		b.Backend = newStub(topo, false)
		if _, err := new(Runner).Run(testConfig(topo), b); err != nil {
			t.Fatal(err)
		}
		if &b.rows[0] != rowsB || len(b.rows) != threads*nn {
			t.Fatalf("re-run with %d threads moved or missized the rows (len %d)", threads, len(b.rows))
		}
	}
}

// fillCyclesReference fills out with the per-pair reference cost
// matrix for the runner's current load: AccessCycles over PathLinkUtil
// for every (src, dst) pair, nothing factored or shared.
func (r *Runner) fillCyclesReference(out []float64) {
	topo := r.cfg.Topo
	nn := r.nNodes
	ctrl := make([]float64, nn)
	r.load.FillCtrlUtil(ctrl)
	for src := 0; src < nn; src++ {
		for dst := 0; dst < nn; dst++ {
			s, d := numa.NodeID(src), numa.NodeID(dst)
			out[src*nn+dst] = topo.Latency.AccessCycles(topo.Distance(s, d), ctrl[dst], r.load.PathLinkUtil(s, d))
		}
	}
}

// TestFillCyclesMatchesReference pins fillCycles' cost matrix bit for
// bit against the per-pair reference at every fixed-point iteration of
// a run with Carrefour migrations, misleading bursts, disk DMA and the
// TLB model live. TestAccessCostModelMatchesAccessCycles (numa) pins the
// pair arithmetic; this pins the link snapshot — FillLinkUtil plus the
// max over RouteLinks — that feeds it. The test steps the full kernel
// by hand, in epoch's order, so it can check between iterations, and
// requires the stepped run to end exactly where Run ends.
func TestFillCyclesMatchesReference(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	cfg := testConfig(topo)
	tlb := numa.DefaultTLB()
	cfg.TLB = &tlb
	prof, err := workload.Get("dc.B") // disk-bound, master-heavy
	if err != nil {
		t.Fatal(err)
	}
	prof.BaselineSeconds = 0.3
	prof.Burstiness = 1 // a misleading burst at every Carrefour tick
	build := func() *Instance {
		return &Instance{Prof: prof, Backend: newStub(topo, false), NThreads: 48, Carrefour: true}
	}
	in := build()
	r := &Runner{}
	if err := r.setup(cfg, in); err != nil {
		t.Fatal(err)
	}
	if in.ioPerTarget <= 0 || in.tlbCycles <= 0 {
		t.Fatalf("disk DMA %v or TLB walk %v not live", in.ioPerTarget, in.tlbCycles)
	}
	want := make([]float64, len(r.cycles))
	const iters = 4
	checked, burstEpochs, maxLink := 0, 0, 0.0
	for step := 0; step < int(cfg.MaxTime/Epoch) && !r.allDone(); step++ {
		r.now = sim.Time(step) * Epoch
		if in.burstLeft > 0 {
			burstEpochs++
		}
		if !in.done {
			in.refreshStreams()
		}
		for iter := 0; iter < iters; iter++ {
			r.fillLoads(iter == iters-1)
			r.fillCyclesReference(want)
			r.updateLatencies()
			for i, w := range want {
				if math.Float64bits(r.cycles[i]) != math.Float64bits(w) {
					t.Fatalf("epoch %d iteration %d: cycles[%d] = %v, reference %v", step, iter, i, r.cycles[i], w)
				}
			}
			for _, u := range r.linkUtil {
				maxLink = math.Max(maxLink, u)
			}
			checked++
		}
		r.progress()
		r.stats[0].Observe(r.instLoads[0])
		r.runTicks(step)
	}
	got, err := r.results()
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Migrated == 0 || burstEpochs == 0 || maxLink == 0 {
		t.Fatalf("run too quiet: %d pages migrated, %d burst epochs, max link utilization %v",
			got[0].Migrated, burstEpochs, maxLink)
	}
	ref, err := new(Runner).Run(cfg, build())
	if err != nil {
		t.Fatal(err)
	}
	gs, rs := got[0].Stats, ref[0].Stats
	got[0].Stats, ref[0].Stats = nil, nil
	if !reflect.DeepEqual(got[0], ref[0]) || !reflect.DeepEqual(gs, rs) {
		t.Fatalf("hand-stepped run diverges from Run:\nstepped: %+v\nRun:     %+v", got[0], ref[0])
	}
	t.Logf("%d iterations checked", checked)
}
