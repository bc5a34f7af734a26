package engine

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/carrefour"
	"repro/internal/numa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// reuseInst is one instance of a reuseRun.
type reuseInst struct {
	app       string
	threads   int
	carrefour bool
	mode      carrefour.Mode
	spread    bool
	burst     float64 // Profile.Burstiness: Carrefour ticks draw from the RNG
}

// reuseRun is one run shape of TestRunnerReuseMatchesFresh.
type reuseRun struct {
	name    string
	topo    *numa.Topology
	scale   int
	maxTime sim.Time // zero: 30 s
	insts   []reuseInst
}

func (s reuseRun) config() Config {
	cfg := Config{Topo: s.topo, Seed: 1, MaxTime: 30 * sim.Second, Scale: s.scale}
	if s.maxTime > 0 {
		cfg.MaxTime = s.maxTime
	}
	return cfg
}

// build returns fresh instances, each on a fresh stub backend.
func (s reuseRun) build(t *testing.T) []*Instance {
	t.Helper()
	out := make([]*Instance, len(s.insts))
	for i, spec := range s.insts {
		prof, err := workload.Get(spec.app)
		if err != nil {
			t.Fatal(err)
		}
		prof.BaselineSeconds = 0.3
		prof.Burstiness = spec.burst
		out[i] = &Instance{
			Prof:          prof,
			Backend:       newStub(s.topo, spec.spread),
			NThreads:      spec.threads,
			Carrefour:     spec.carrefour,
			CarrefourMode: spec.mode,
		}
	}
	return out
}

// TestRunnerReuseMatchesFresh pins the Runner half of the warm-pool
// protocol: one Runner, run through a sequence of differently shaped
// runs — Carrefour off and on in every Mode, 48 and 24 threads, one and
// two instances, two topology scales and a machine with another node
// count — must return for each exactly what a zero Runner returns,
// statistics included. Reruns of the last shape on the warm Runner,
// with its instances recycled, must allocate little more than the
// results they return.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	amd64, amd32 := numa.AMD48Scaled(64), numa.AMD48Scaled(32)
	small := numa.SmallMachine(4, 6, 1<<30)
	facesim := func(threads int, on bool, mode carrefour.Mode) reuseInst {
		return reuseInst{app: "facesim", threads: threads, carrefour: on, mode: mode, burst: 0.5}
	}
	stream := func(threads int, mode carrefour.Mode) reuseInst {
		return reuseInst{app: "streamcluster", threads: threads, carrefour: true, mode: mode, spread: true}
	}
	runs := []reuseRun{
		{"carrefour off", amd64, 64, 0, []reuseInst{facesim(48, false, carrefour.ModeFull)}},
		{"full", amd64, 64, 0, []reuseInst{facesim(48, true, carrefour.ModeFull)}},
		// Cut mid-run in a converged span, so the next run starts from
		// a runner whose fast path was live.
		{"timed out", amd64, 64, 150 * sim.Millisecond, []reuseInst{{app: "cg.C", threads: 48}}},
		{"migration-only, 24 threads", amd64, 64, 0, []reuseInst{stream(24, carrefour.ModeMigrationOnly)}},
		{"two instances", amd64, 64, 0, []reuseInst{
			stream(24, carrefour.ModeReplicationOnly),
			facesim(24, true, carrefour.ModeFull),
		}},
		{"scale 32", amd32, 32, 0, []reuseInst{facesim(48, true, carrefour.ModeFull)}},
		{"four nodes", small, 64, 0, []reuseInst{facesim(24, true, carrefour.ModeFull)}},
		{"back to AMD48 at 48 threads", amd64, 64, 0, []reuseInst{
			facesim(48, true, carrefour.ModeFull),
			stream(48, carrefour.ModeReplicationOnly),
		}},
	}
	var warm Runner
	var last []*Instance
	migrated, timedOut := false, false
	for _, s := range runs {
		last = s.build(t)
		got, err := warm.Run(s.config(), last...)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		want, err := new(Runner).Run(s.config(), s.build(t)...)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: warm Runner diverges from a zero one:\nwarm: %+v\nzero: %+v", s.name, got, want)
		}
		for _, r := range got {
			migrated = migrated || r.Migrated > 0
			timedOut = timedOut || r.TimedOut && warm.converged
		}
	}
	if !migrated || !timedOut {
		t.Fatalf("vacuous sequence: a page migrated %v, a run timed out converged %v", migrated, timedOut)
	}

	// Same-shape reruns: the instances and their stubs are recycled, so
	// what is left is the run's own output, the same in every rerun.
	// The window also catches the runtime's own allocations: when
	// ReadMemStats restarts the world under CPU contention, the runtime
	// may start an OS thread (its m, g stacks and profiling buffer,
	// ~5 KB). So the smallest of three reruns is held to the bound.
	s := runs[len(runs)-1]
	least := uint64(math.MaxUint64)
	for range 3 {
		for _, in := range last {
			b := in.Backend.(*stubBackend)
			b.nextMFN, b.rr, b.migrated = 0, 0, 0
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := warm.Run(s.config(), last...)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		want, err := new(Runner).Run(s.config(), s.build(t)...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("same-shape rerun diverges from a zero Runner:\nwarm: %+v\nzero: %+v", got, want)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 4<<10 {
		t.Fatalf("same-shape reruns allocated at least %d bytes, want under 4 KB", least)
	}
}
