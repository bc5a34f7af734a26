package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// checkNoneInFlight fails unless every cell named on s so far has been
// computed and read: the scheduler ran one task per named cell, each
// cell computed once, and every cell is in the snapshot. A driver that
// returned with a cell still queued or running fails at least one of
// those.
func checkNoneInFlight(t *testing.T, s *Suite, after string) {
	t.Helper()
	submitted, _ := s.SchedulerStats()
	computed, snap := s.CellsComputed(), len(s.Snapshot())
	if submitted != computed || computed != int64(snap) {
		t.Errorf("after %s: %d tasks submitted, %d cells computed, %d in the snapshot; want all equal",
			after, submitted, computed, snap)
	}
}

// renderSweeps drives all three sweep tables for one cheap app on a
// fresh suite with the given worker count, checking after each that it
// left no cell in flight.
func renderSweeps(t *testing.T, workers int, seed uint64) string {
	s := NewSuiteParallel(256, workers)
	s.Opt.Seed = seed
	var b strings.Builder
	b.WriteString(PolicySweepApps(s, []string{"swaptions"})[0].Render())
	checkNoneInFlight(t, s, "PolicySweepApps")
	b.WriteString(BindSweep(s, "swaptions").Render())
	checkNoneInFlight(t, s, "BindSweep")
	b.WriteString(SeedSweepApps(s, []string{"swaptions"}, 2)[0].Render())
	checkNoneInFlight(t, s, "SeedSweepApps")
	return b.String()
}

// TestSweepsDeterministicAcrossWorkers: the same seed must produce
// byte-identical sweep tables no matter how many workers execute the
// cells. Run with -race to also validate concurrent cell execution.
func TestSweepsDeterministicAcrossWorkers(t *testing.T) {
	want := renderSweeps(t, 1, 7)
	got := renderSweeps(t, 6, 7)
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

// seededCells is how many of one app's sweep cells read their seed: its
// Carrefour cells if the app's accesses burst (fluidanimate), none if
// they do not (swaptions).
func seededCells(t *testing.T, app string) int {
	prof, err := workload.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Burstiness == 0 {
		return 0
	}
	n := 0
	for _, p := range SweepPolicies() {
		if strings.HasSuffix(p, "/carrefour") {
			n++
		}
	}
	return n
}

// sweepCells is how many cells a seeds-seed sweep of app computes: one
// sweep's worth for the first seed, and only the cells that read their
// seed for each further one.
func sweepCells(t *testing.T, app string, seeds int) int64 {
	return int64(len(SweepPolicies()) + seededCells(t, app)*(seeds-1))
}

// TestMultiAppSweepBatchesOnOnePool: the …Apps variants must produce
// one table per app (identical to the single-app sweeps) from a single
// naming wave on the shared suite.
func TestMultiAppSweepBatchesOnOnePool(t *testing.T) {
	apps := []string{"swaptions", "fluidanimate"}
	s := NewSuiteParallel(256, 4)
	s.Opt.Seed = 7
	tabs := PolicySweepApps(s, apps)
	if len(tabs) != len(apps) {
		t.Fatalf("got %d tables for %d apps", len(tabs), len(apps))
	}
	want := int64(len(apps) * len(SweepPolicies()))
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
	// additional seed's cells that read it are new — fluidanimate's
	// Carrefour cells, none of swaptions'.
	before := s.CellsComputed()
	SeedSweepApps(s, apps, 2)
	extra := int64(seededCells(t, "swaptions") + seededCells(t, "fluidanimate"))
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

// TestSeedSweepSharedScheduler: a seed sweep must compute every seed's
// cells on the caller's own suite — one scheduler, one cache — rather
// than spinning up fresh per-seed suites, and the scheduler runs one
// task per distinct cell however often it is named. A cell that reads
// no seed is one cell for every seed.
func TestSeedSweepSharedScheduler(t *testing.T) {
	const app = "fluidanimate"
	s := NewSuiteParallel(256, 4)
	s.Opt.Seed = 7
	const seeds = 2
	SeedSweepApps(s, []string{app}, seeds)
	want := sweepCells(t, app, seeds)
	if got := s.CellsComputed(); got != want {
		t.Fatalf("shared suite computed %d cells, want %d (one sweep plus the seeded cells of each further seed)", got, want)
	}
	if submitted, _ := s.SchedulerStats(); submitted != want {
		t.Fatalf("scheduler ran %d tasks, want %d: per-seed cells not batched on the shared pool",
			submitted, want)
	}
	// Re-reading any seed's cells is pure cache hits.
	SeedSweepApps(s, []string{app}, seeds)
	if got := s.CellsComputed(); got != want {
		t.Fatalf("second sweep recomputed %d cells", got-want)
	}
	// A second naming wave of the same cells, issued while most of the
	// first wave still queues for the single worker, must submit
	// nothing: naming claims a cell when it submits it.
	s2 := NewSuiteParallel(256, 1)
	var named []*Cell
	for wave := 1; wave <= 2; wave++ {
		for i := uint64(0); i < seeds; i++ {
			for _, pol := range SweepPolicies() {
				named = append(named, s2.XenSeeded(app, pol, true, 7+i))
			}
		}
		if submitted, _ := s2.SchedulerStats(); submitted != want {
			t.Fatalf("after naming wave %d: %d tasks submitted, want %d", wave, submitted, want)
		}
	}
	for _, c := range named {
		c.Result()
	}
	if got := s2.CellsComputed(); got != want {
		t.Fatalf("two naming waves computed %d cells, want %d", got, want)
	}
}

// TestSeedSweepWrapsPastMaxSeed: the seed range of a sweep that starts
// at the largest seed wraps past 0, which means 1 as everywhere else,
// so every seed must still read its own cells: each seed's seeded
// cells, and a table that names each seed once.
func TestSeedSweepWrapsPastMaxSeed(t *testing.T) {
	const app = "fluidanimate"
	for _, seeds := range []int{2, 3} {
		s := NewSuiteParallel(256, 0)
		s.Opt.Seed = math.MaxUint64
		tab := SeedSweepApps(s, []string{app}, seeds)[0]
		if got, want := s.CellsComputed(), sweepCells(t, app, seeds); got != want {
			t.Errorf("%d-seed sweep from the largest seed computed %d cells, want %d", seeds, got, want)
		}
		if note := tab.Notes[1]; strings.Count(note, "seed 1 →") != 1 || strings.Contains(note, "seed 0") {
			t.Errorf("%d-seed sweep from the largest seed: per-seed note %q", seeds, note)
		}
	}
}

// TestSeedKeyedCellsMatchFreshSuites is the cross-suite determinism
// check: every (seed, policy) result a shared multi-seed suite serves
// must be bit-identical to the same cell computed by a fresh suite
// dedicated to that seed — across worker counts (the shared suite runs
// wide, the fresh suites serially). The app's accesses burst, so its
// Carrefour cells read their seed, and at least one of them must
// differ between the two seeds: a suite that served one seed's cell for
// another would fail here.
func TestSeedKeyedCellsMatchFreshSuites(t *testing.T) {
	const app = "fluidanimate"
	const seeds = 2
	shared := NewSuiteParallel(256, 4)
	shared.Opt.Seed = 7
	SeedSweepApps(shared, []string{app}, seeds)
	pols := SweepPolicies()
	for i := 0; i < seeds; i++ {
		seed := uint64(7 + i)
		fresh := NewSuiteParallel(256, 1)
		fresh.Opt.Seed = seed
		w := nameSweep(pols, func(p string) *Cell { return fresh.Xen(app, p, true) })
		for _, pol := range pols {
			got := flatResult(shared.XenSeeded(app, pol, true, seed).Result())
			want := flatResult(w.result(pol))
			if got != want {
				t.Errorf("seed %d %s: shared suite %v != fresh suite %v", seed, pol, got, want)
			}
		}
	}
	differ := 0
	for _, pol := range pols {
		if flatResult(shared.XenSeeded(app, pol, true, 7).Result()) != flatResult(shared.XenSeeded(app, pol, true, 8).Result()) {
			differ++
		}
	}
	if differ == 0 {
		t.Errorf("no %s cell differs between seeds 7 and 8; its Carrefour cells read their seed", app)
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
