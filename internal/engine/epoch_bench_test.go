package engine

import (
	"testing"

	"repro/internal/numa"
	"repro/internal/sim"
)

// BenchmarkEpoch measures one steady-state iteration of the per-cell
// engine loop (stream-table refresh, four fixed-point rate/latency
// couplings, progress and statistics) — the unit of work every
// experiment cell repeats thousands of times. TestEpochAllocFree holds
// the same epoch at zero allocations; this benchmark only times it.
func BenchmarkEpoch(b *testing.B) {
	benchEpoch(b, newStub(numa.AMD48Scaled(64), false))
}

// pinnedStub pins every thread to node 0: all 48 threads then fold to
// bitwise-identical node rows and collapse into a single dedup group.
type pinnedStub struct {
	stubBackend
}

func (b *pinnedStub) ThreadNode(int) numa.NodeID { return 0 }

// BenchmarkEpochUniqueRows is BenchmarkEpoch with every thread pinned
// to one node, the best case for the row-dedup emission: the
// fixed-point walks touch uniqueRows × nodes cells (one row here)
// instead of threads × nodes. The gap to BenchmarkEpoch measures the
// dedup win separately from the baseline kernel.
func BenchmarkEpochUniqueRows(b *testing.B) {
	benchEpoch(b, &pinnedStub{*newStub(numa.AMD48Scaled(64), false)})
}

func benchEpoch(b *testing.B, backend Backend) {
	// The bench measures the full kernel: with the converged fast path
	// on, steady-state epochs would skip the very passes being timed.
	r := steadyRunner(b, backend, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.now = sim.Time(i) * r.cfg.Epoch
		r.epoch(i)
	}
}

// steadyRunner builds a runner whose workload is pinned in steady state
// by an effectively infinite baseline, so every epoch it runs is a
// steady-state one. One warm-up epoch populates the lazily allocated
// caches and scratch buffers.
func steadyRunner(tb testing.TB, backend Backend, noConverge bool) *runner {
	tb.Helper()
	topo := numa.AMD48Scaled(64)
	prof := testProfile()
	prof.BaselineSeconds = 1e9 // never finishes
	in := &Instance{Prof: prof, Backend: backend, NThreads: 48}
	cfg := testConfig(topo)
	r := &runner{cfg: cfg, insts: []*Instance{in}, rand: sim.NewRand(cfg.Seed), noConverge: noConverge}
	if err := r.setup(); err != nil {
		tb.Fatal(err)
	}
	r.epoch(1)
	return r
}

// TestEpochAllocFree requires a steady-state epoch to allocate nothing,
// on the full kernel (noConverge) and on the converged fast path, for
// BenchmarkEpoch's backend (threads spread over every node) and
// BenchmarkEpochUniqueRows' (threads pinned to one node). An allocation
// count does not depend on the host, so this runs on every go test,
// under -race too; the noalloc analyzer names the offending line.
func TestEpochAllocFree(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	backends := []struct {
		name  string
		build func() Backend
	}{
		{"spread", func() Backend { return newStub(topo, false) }},
		{"pinned", func() Backend { return &pinnedStub{*newStub(topo, false)} }},
	}
	for _, be := range backends {
		for _, noConverge := range []bool{true, false} {
			r := steadyRunner(t, be.build(), noConverge)
			step := 1
			allocs := testing.AllocsPerRun(100, func() {
				step++
				r.now = sim.Time(step) * r.cfg.Epoch
				r.epoch(step)
			})
			if allocs != 0 {
				t.Errorf("%s, noConverge=%v: %v allocs per epoch, want 0", be.name, noConverge, allocs)
			}
			if !noConverge && r.convergedEpochs == 0 {
				t.Errorf("%s: converged fast path never fired; its case is vacuous", be.name)
			}
		}
	}
}
