package exp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
)

// renderSweeps drives all three sweep tables for one cheap app on a
// fresh suite with the given worker count.
func renderSweeps(workers int, seed uint64) string {
	s := NewSuiteParallel(256, workers)
	s.Opt.Seed = seed
	var b strings.Builder
	b.WriteString(PolicySweepApps(s, []string{"swaptions"})[0].Render())
	b.WriteString(BindSweep(s, "swaptions").Render())
	b.WriteString(SeedSweepApps(s, []string{"swaptions"}, 2)[0].Render())
	return b.String()
}

// TestSweepsDeterministicAcrossWorkers: the same seed must produce
// byte-identical sweep tables no matter how many workers execute the
// cells. Run with -race to also validate concurrent cell execution.
func TestSweepsDeterministicAcrossWorkers(t *testing.T) {
	want := renderSweeps(1, 7)
	got := renderSweeps(6, 7)
	if got != want {
		t.Fatalf("sweep tables differ across worker counts:\n--- 1 worker ---\n%s--- 6 workers ---\n%s", want, got)
	}
}

// TestPolicySweepCoversRegistry: the policy sweep must have one row per
// registered policy and a Carrefour cell exactly where the descriptor
// allows stacking.
func TestPolicySweepCoversRegistry(t *testing.T) {
	s := NewSuiteParallel(256, 0)
	tab := PolicySweepApps(s, []string{"swaptions"})[0]
	rows := sweepRows()
	if len(tab.Rows) != len(rows) {
		t.Fatalf("sweep has %d rows, registry has %d policies", len(tab.Rows), len(rows))
	}
	for i, r := range rows {
		if tab.Rows[i][0] != r.name {
			t.Errorf("row %d is %q, want %q", i, tab.Rows[i][0], r.name)
		}
		carrefourCell := tab.Rows[i][4]
		if r.carrefour && carrefourCell == "-" {
			t.Errorf("%s: missing carrefour cell", r.name)
		}
		if !r.carrefour && carrefourCell != "-" {
			t.Errorf("%s: carrefour cell %q for an unstackable policy", r.name, carrefourCell)
		}
	}
}

// TestBindSweepCoversEveryNode: one row per node of the machine.
func TestBindSweepCoversEveryNode(t *testing.T) {
	s := NewSuiteParallel(256, 0)
	tab := BindSweep(s, "swaptions")
	if len(tab.Rows) != 8 {
		t.Fatalf("bind sweep has %d rows, want 8 (AMD48 nodes)", len(tab.Rows))
	}
	if tab.Rows[3][0] != "bind:3" {
		t.Fatalf("row 3 is %q, want bind:3", tab.Rows[3][0])
	}
}

// TestSeedSweepWinsSumToSeeds: every seed elects exactly one winner.
func TestSeedSweepWinsSumToSeeds(t *testing.T) {
	s := NewSuiteParallel(256, 0)
	const seeds = 3
	tab := SeedSweepApps(s, []string{"swaptions"}, seeds)[0]
	total := 0
	for _, row := range tab.Rows {
		n := 0
		if _, err := fmt.Sscan(row[3], &n); err != nil {
			t.Fatalf("bad wins cell %q: %v", row[3], err)
		}
		total += n
	}
	if total != seeds {
		t.Fatalf("wins sum to %d, want %d", total, seeds)
	}
}

// TestMultiAppSweepBatchesOnOnePool: the …Apps variants must produce
// one table per app (identical to the single-app sweeps) from a single
// prefetch wave on the shared suite.
func TestMultiAppSweepBatchesOnOnePool(t *testing.T) {
	apps := []string{"swaptions", "ep.D"}
	s := NewSuiteParallel(256, 4)
	s.Opt.Seed = 7
	tabs := PolicySweepApps(s, apps)
	if len(tabs) != len(apps) {
		t.Fatalf("got %d tables for %d apps", len(tabs), len(apps))
	}
	want := int64(len(apps) * len(sweepPolicies()))
	if got := s.CellsComputed(); got != want {
		t.Fatalf("multi-app sweep computed %d cells, want %d", got, want)
	}
	for i, app := range apps {
		single := NewSuiteParallel(256, 1)
		single.Opt.Seed = 7
		if got, wantTab := tabs[i].Render(), PolicySweepApps(single, []string{app})[0].Render(); got != wantTab {
			t.Errorf("%s: multi-app table differs from single-app sweep:\n--- multi ---\n%s--- single ---\n%s",
				app, got, wantTab)
		}
	}
	// Seed sweeps compose with the app batch on the same pool: only the
	// additional seed's cells are new.
	before := s.CellsComputed()
	SeedSweepApps(s, apps, 2)
	extra := int64(len(apps) * len(sweepPolicies()))
	if got := s.CellsComputed(); got != before+extra {
		t.Fatalf("seed sweep over the app batch computed %d new cells, want %d (one extra seed)",
			got-before, extra)
	}
}

// TestBindSweepDefaultScale: a suite built with the documented zero
// default (NewSuite(0) → run-time scale 64) must sweep without
// panicking in the table layer.
func TestBindSweepDefaultScale(t *testing.T) {
	if testing.Short() {
		t.Skip("8 default-scale cells")
	}
	tab := BindSweep(NewSuite(0), "swaptions")
	if len(tab.Rows) != 8 {
		t.Fatalf("bind sweep has %d rows, want 8", len(tab.Rows))
	}
}

// flatResult projects the bit-exact observable fields of a result for
// equality comparison across suites (Stats is a pointer, so the struct
// itself cannot be compared directly).
func flatResult(r engine.Result) [8]float64 {
	return [8]float64{
		float64(r.Completion), float64(r.InitTime), r.Imbalance,
		r.InterconnectLoad, r.Locality, float64(r.Migrated),
		r.Stats.TotalAccesses, r.Stats.RemoteAccesses,
	}
}

// TestSeedSweepSharedScheduler: a seed sweep must compute all
// seeds × policies cells on the caller's own suite — one scheduler, one
// cache — rather than spinning up fresh per-seed suites, and the
// scheduler runs one task per distinct cell however often it is
// prefetched.
func TestSeedSweepSharedScheduler(t *testing.T) {
	s := NewSuiteParallel(256, 4)
	s.Opt.Seed = 7
	const seeds = 2
	SeedSweepApps(s, []string{"swaptions"}, seeds)
	want := int64(seeds * len(sweepPolicies()))
	if got := s.CellsComputed(); got != want {
		t.Fatalf("shared suite computed %d cells, want %d (seeds × policies)", got, want)
	}
	submitted, completed := s.sched.Stats()
	if submitted != want || completed != want {
		t.Fatalf("scheduler ran %d/%d tasks, want %d: per-seed cells not batched on the shared pool",
			submitted, completed, want)
	}
	// Re-reading any seed's cells is pure cache hits.
	SeedSweepApps(s, []string{"swaptions"}, seeds)
	if got := s.CellsComputed(); got != want {
		t.Fatalf("second sweep recomputed %d cells", got-want)
	}
	// A second prefetch wave of the same cells, issued before Join while
	// most of the first wave still queues for the single worker, must
	// submit nothing: prefetch claims a cell when it submits it.
	s2 := NewSuiteParallel(256, 1)
	for wave := 1; wave <= 2; wave++ {
		for i := uint64(0); i < seeds; i++ {
			for _, pol := range sweepPolicies() {
				s2.PrefetchXenSeeded("swaptions", pol, true, 7+i)
			}
		}
		if submitted, _ := s2.sched.Stats(); submitted != want {
			t.Fatalf("after prefetch wave %d: %d tasks submitted, want %d", wave, submitted, want)
		}
	}
	s2.Join()
	if got := s2.CellsComputed(); got != want {
		t.Fatalf("two prefetch waves computed %d cells, want %d", got, want)
	}
}

// TestSeedKeyedCellsMatchFreshSuites is the cross-suite determinism
// check: every (seed, policy) result a shared multi-seed suite serves
// must be bit-identical to the same cell computed by a fresh suite
// dedicated to that seed — across worker counts (the shared suite runs
// wide, the fresh suites serially).
func TestSeedKeyedCellsMatchFreshSuites(t *testing.T) {
	const app = "swaptions"
	const seeds = 2
	shared := NewSuiteParallel(256, 4)
	shared.Opt.Seed = 7
	SeedSweepApps(shared, []string{app}, seeds)
	pols := sweepPolicies()
	for i := 0; i < seeds; i++ {
		seed := uint64(7 + i)
		fresh := NewSuiteParallel(256, 1)
		fresh.Opt.Seed = seed
		for _, pol := range pols {
			fresh.PrefetchXen(app, pol, true)
		}
		fresh.Join()
		for _, pol := range pols {
			got := flatResult(shared.XenSeeded(app, pol, true, seed))
			want := flatResult(fresh.Xen(app, pol, true))
			if got != want {
				t.Errorf("seed %d %s: shared suite %v != fresh suite %v", seed, pol, got, want)
			}
		}
	}
}

// TestSeedSweepReusesCallerSuite: the first seed is the caller's own,
// so it must be served from the suite's cache — a prior PolicySweepApps
// makes its cells pure hits. Seed 0 (the documented default, which
// cellSeed normalizes to 1) must reuse too.
func TestSeedSweepReusesCallerSuite(t *testing.T) {
	for _, seed := range []uint64{7, 0} {
		s := NewSuiteParallel(256, 0)
		s.Opt.Seed = seed
		PolicySweepApps(s, []string{"swaptions"})
		before := s.CellsComputed()
		SeedSweepApps(s, []string{"swaptions"}, 1)
		if got := s.CellsComputed(); got != before {
			t.Fatalf("seed %d: seed sweep recomputed %d cells the suite already held", seed, got-before)
		}
	}
}
