package exp

import (
	"fmt"
	"strings"
	"testing"

	xennuma "repro"
)

// miniPairs is a cheap two-VM configuration set built from the fastest
// workloads, used to exercise the full batched pair-figure path (sweep →
// best-policy selection → pair cells) without the full suite's cost.
var miniPairs = []Pair{{"swaptions", "ep.D"}}

// renderMiniTables drives both pair-figure modes through the real
// pairFigure code path on a fresh suite with the given worker count and
// returns the concatenated rendered tables plus the cache keys.
func renderMiniTables(workers int, seed uint64) (string, []string) {
	s := NewSuiteParallel(256, workers)
	s.Opt.Seed = seed
	var b strings.Builder
	b.WriteString(pairFigure(s, "mini8", "mini colocated", miniPairs, xennuma.Colocated).Render())
	b.WriteString(pairFigure(s, "mini9", "mini consolidated", miniPairs, xennuma.Consolidated).Render())
	return b.String(), s.CacheKeys()
}

// TestPairFigureDeterministicAcrossWorkers: the same seed must produce
// byte-identical tables (and an identical cell population) no matter how
// many workers execute the suite. Run with -race to also validate that
// concurrent runs, each on its own leased machine and runner, share no
// mutable state.
func TestPairFigureDeterministicAcrossWorkers(t *testing.T) {
	want, wantKeys := renderMiniTables(1, 7)
	if !strings.Contains(want, "swaptions + ep.D") {
		t.Fatalf("unexpected table:\n%s", want)
	}
	for _, workers := range []int{3, 8} {
		got, gotKeys := renderMiniTables(workers, 7)
		if got != want {
			t.Errorf("workers=%d rendered different tables:\n--- 1 worker ---\n%s--- %d workers ---\n%s",
				workers, want, workers, got)
		}
		if fmt.Sprint(gotKeys) != fmt.Sprint(wantKeys) {
			t.Errorf("workers=%d computed a different cell set", workers)
		}
	}
	// A different seed must change at least the cached results' streams
	// (the rendered improvements generally shift too, but are rounded);
	// assert the suite at least accepts it and stays deterministic.
	again, _ := renderMiniTables(4, 11)
	again2, _ := renderMiniTables(2, 11)
	if again != again2 {
		t.Error("seed 11 not deterministic across worker counts")
	}
}

// TestFullPairTablesDeterministicAcrossWorkers is the acceptance check:
// exp.NewSuite driving both Fig8 and Fig9 produces byte-identical tables
// for a fixed seed with 1 worker and with many. It recomputes the full
// pair evaluation twice (~5 s on a 2-vCPU Xeon), so it is skipped in
// short mode and under the race detector, where the mini variant above
// covers the same property.
func TestFullPairTablesDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full pair tables are expensive; run without -short")
	}
	if raceEnabled {
		t.Skip("covered by the mini variant under race")
	}
	render := func(workers int) string {
		s := NewSuiteParallel(64, workers)
		s.Opt.Seed = 1
		return Fig8(s).Render() + Fig9(s).Render()
	}
	want := render(1)
	if got := render(8); got != want {
		t.Fatalf("Fig8+Fig9 differ between 1 and 8 workers:\n--- 1 ---\n%s--- 8 ---\n%s", want, got)
	}
}

// BenchmarkPairFiguresWorkers measures the batched pair-figure wall
// clock at increasing worker counts; on a multi-core machine the sweep
// scales near-linearly until the core count (the cells are independent
// simulations), demonstrating the ≥2x speedup at 4+ workers.
func BenchmarkPairFiguresWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := NewSuiteParallel(64, workers)
				Fig8(s)
				Fig9(s)
			}
		})
	}
}

// BenchmarkMiniPairFiguresWorkers is the same sweep over the cheap
// configuration set, for quick comparisons.
func BenchmarkMiniPairFiguresWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := NewSuiteParallel(256, workers)
				pairFigure(s, "mini8", "mini colocated", miniPairs, xennuma.Colocated)
				pairFigure(s, "mini9", "mini consolidated", miniPairs, xennuma.Consolidated)
			}
		})
	}
}
