package engine

import (
	"reflect"
	"testing"

	"repro/internal/numa"
	"repro/internal/sim"
)

// runConverge executes one run with the given noConverge setting through
// a hand-built runner (Run hides it) and returns the results plus the
// number of epochs the fast path skipped.
func runConverge(t *testing.T, noConverge, carrefour bool) ([]Result, uint64) {
	t.Helper()
	topo := numa.AMD48Scaled(64)
	cfg := testConfig(topo)
	in := &Instance{
		Prof:      testProfile(),
		Backend:   newStub(topo, true),
		NThreads:  48,
		Carrefour: carrefour,
	}
	r := &runner{cfg: cfg, insts: []*Instance{in}, rand: sim.NewRand(cfg.Seed), noConverge: noConverge}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	r.loop()
	res, err := r.results()
	if err != nil {
		t.Fatal(err)
	}
	return res, r.convergedEpochs
}

// TestConvergedFastPathMatchesFullKernel pins the converged-epoch fast
// path: a run with the fast path enabled must produce results
// bit-for-bit identical to the full computation (runner.noConverge),
// and the fast path must actually fire — otherwise the test is vacuous
// and the optimization dead.
func TestConvergedFastPathMatchesFullKernel(t *testing.T) {
	for _, carrefour := range []bool{false, true} {
		full, skippedFull := runConverge(t, true, carrefour)
		fast, skippedFast := runConverge(t, false, carrefour)
		if skippedFull != 0 {
			t.Fatalf("carrefour=%v: noConverge run skipped %d epochs", carrefour, skippedFull)
		}
		if skippedFast == 0 {
			t.Errorf("carrefour=%v: fast path never fired; optimization is dead", carrefour)
		}
		// Results embed *RunStats; compare the dereferenced stats too.
		if len(full) != len(fast) {
			t.Fatalf("carrefour=%v: result counts differ", carrefour)
		}
		for i := range full {
			f, g := full[i], fast[i]
			fs, gs := f.Stats, g.Stats
			f.Stats, g.Stats = nil, nil
			if !reflect.DeepEqual(f, g) {
				t.Errorf("carrefour=%v: result %d diverges:\nfull: %+v\nfast: %+v", carrefour, i, f, g)
			}
			if !reflect.DeepEqual(fs, gs) {
				t.Errorf("carrefour=%v: result %d stats diverge", carrefour, i)
			}
		}
	}
}

// TestRecycledInstanceMatchesFresh pins the engine half of the warm-pool
// protocol: an instance run again must produce results bit-for-bit
// identical to a freshly constructed instance of the same shape.
func TestRecycledInstanceMatchesFresh(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	build := func() *Instance {
		return &Instance{
			Prof:      testProfile(),
			Backend:   newStub(topo, true),
			NThreads:  48,
			Carrefour: true,
		}
	}
	run := func(in *Instance) []Result {
		// Fresh backend per run: the stub accumulates page placements.
		in.Backend = newStub(topo, true)
		res, err := Run(testConfig(topo), in)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	recycled := build()
	run(recycled) // first run dirties every piece of private state
	got := run(recycled)
	want := run(build())

	compare := func(name string, g, w Result) {
		t.Helper()
		gs, ws := g.Stats, w.Stats
		g.Stats, w.Stats = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s diverges:\nrecycled: %+v\nfresh:    %+v", name, g, w)
		}
		if !reflect.DeepEqual(gs, ws) {
			t.Errorf("%s stats diverge", name)
		}
	}
	compare("recycled instance", got[0], want[0])

	// Reshaped recycle: a pooled machine can be re-leased by a cell with
	// a different thread count. The storage shrinks in place — and the
	// dynamic state (done, Completion, burst and fold fields) must still
	// reset, or the run replays the previous lease's outcome.
	recycled.NThreads = 24
	reshaped := run(recycled)
	fresh := build()
	fresh.NThreads = 24
	compare("reshaped recycled instance", reshaped[0], run(fresh)[0])

	// Regrown: back at 48 threads, the threads and regions the shrink
	// left past the slices' length are reused and must reset as well.
	recycled.NThreads = 48
	compare("regrown recycled instance", run(recycled)[0], want[0])
}
