package exp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/sim"
)

// The sweep experiment family turns the open policy registry into a
// decision-making instrument: instead of regenerating a fixed figure of
// the paper, a sweep tabulates *every* registered policy for one
// application — the measurement the paper's §7 says an automatic policy
// selector would need. Three sweeps exist: the policy × Carrefour table
// (PolicySweepApps), the per-node bind sweep mapping placement
// sensitivity (BindSweep), and the seed-averaged stability report
// (SeedSweepApps). All three fan their cells out through the suite's
// scheduler and are bit-for-bit deterministic for a fixed seed at any
// worker count.
//
// Because the suite's cache keys carry the seed, one suite serves every
// (app, seed) combination: the …Apps sweeps name several applications'
// cells — and SeedSweepApps every seed's — on the shared pool before
// any table is read.

// sweepRow is one registered policy as the sweeps run it: the plain
// suite-ready spelling plus whether a Carrefour-stacked cell exists.
type sweepRow struct {
	name      string // "round-4k", "bind:0", ...
	carrefour bool
}

// sweepRows enumerates the registry in registration order. Unlike
// RegisteredXenPolicies it includes the Carrefour variant of boot-only
// kinds: a sweep cell boots the domain with its row's policy, so
// stacking Carrefour on round-1G is legal there (only a *runtime switch*
// to a boot-only layout is not).
func sweepRows() []sweepRow {
	var rows []sweepRow
	for _, d := range policy.List() {
		rows = append(rows, sweepRow{name: d.DefaultSpelling(), carrefour: d.Carrefour})
	}
	return rows
}

// sweepPolicies flattens sweepRows into the cell list both sweeps run:
// each policy's plain spelling plus its Carrefour variant where one
// exists.
func sweepPolicies() []string {
	var pols []string
	for _, r := range sweepRows() {
		pols = append(pols, r.name)
		if r.carrefour {
			pols = append(pols, r.name+"/carrefour")
		}
	}
	return pols
}

// PolicySweepApps tabulates every registered policy × {plain,
// Carrefour} for each app under Xen+: completion time and improvement
// over the Xen+ default (round-1G), one simulation cell per table cell.
// Every (app, policy) cell is named before any table is read, so the
// whole batch runs at the pool's full width. One table per app, in
// input order.
func PolicySweepApps(s *Suite, apps []string) []*Table {
	rows := sweepRows()
	pols := sweepPolicies()
	sweeps := nameAll(apps, func(app string) sweep {
		return nameSweep(pols, func(p string) *Cell { return s.Xen(app, p, true) })
	})

	tables := make([]*Table, 0, len(apps))
	for i, app := range apps {
		w := sweeps[i]
		t := &Table{
			ID:     "sweep",
			Title:  fmt.Sprintf("Policy sweep for %s under Xen+ (improvement vs round-1G)", app),
			Header: []string{"policy", "abbrev", "plain", "vs R1G", "carrefour", "vs R1G"},
		}
		base := w.result("round-1g")
		impr := func(r engine.Result) string {
			return pct(float64(base.Completion)/float64(r.Completion) - 1)
		}
		for _, row := range rows {
			plain := w.result(row.name)
			ccomp, cimpr := "-", "-"
			if row.carrefour {
				c := w.result(row.name + "/carrefour")
				ccomp, cimpr = c.Completion.String(), impr(c)
			}
			t.Rows = append(t.Rows, []string{
				row.name, Abbrev(row.name), plain.Completion.String(), impr(plain), ccomp, cimpr})
		}
		bestPol, bestRes := w.best()
		t.Notes = append(t.Notes,
			fmt.Sprintf("best: %s (%s, %s vs round-1G) over %d cells",
				bestPol, bestRes.Completion, impr(bestRes), len(pols)))
		tables = append(tables, t)
	}
	return tables
}

// BindSweep maps app's placement sensitivity: one cell per bind:<node>
// policy, pinning every faulted page to that node. The spread between
// the best and worst node shows how much the single-node placement
// decision alone is worth.
func BindSweep(s *Suite, app string) *Table {
	nodes := numa.AMD48Nodes
	cells := make([]*Cell, nodes)
	for n := range cells {
		cells[n] = s.Xen(app, fmt.Sprintf("bind:%d", n), true)
	}

	t := &Table{
		ID:     "sweep-bind",
		Title:  fmt.Sprintf("Per-node bind sweep for %s under Xen+ (placement sensitivity)", app),
		Header: []string{"policy", "completion", "imbalance", "interconnect", "locality"},
	}
	bestNode, worstNode := 0, 0
	var best, worst engine.Result
	for n := 0; n < nodes; n++ {
		r := cells[n].Result()
		if n == 0 || r.Completion < best.Completion {
			bestNode, best = n, r
		}
		if n == 0 || r.Completion > worst.Completion {
			worstNode, worst = n, r
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("bind:%d", n), r.Completion.String(),
			f0(r.Imbalance) + "%", f0(r.InterconnectLoad) + "%", f2(r.Locality)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"sensitivity: worst node %d is %s slower than best node %d",
		worstNode, pct(float64(worst.Completion)/float64(best.Completion)-1), bestNode))
	return t
}

// SeedSweepApps reports best-policy stability: it repeats the full
// policy sweep for each app across `seeds` consecutive seeds (starting
// at the suite's seed; a range that wraps skips 0, which means 1, so no
// seed is swept twice) and tabulates each policy's mean completion and
// how often it won. Cache keys carry the seed, so every seed's cells
// run on s's own scheduler and cache — all seeds × apps × policies are
// named before any cell is read, and the first seed's cells are pure
// hits when a PolicySweepApps ran before. One table per app, in input
// order.
func SeedSweepApps(s *Suite, apps []string, seeds int) []*Table {
	if seeds < 1 {
		seeds = 1
	}
	pols := sweepPolicies()
	seedList := make([]uint64, seeds)
	bySeed := make([][]sweep, seeds) // [seed][app]
	for i, seed := 0, s.baseSeed(); i < seeds; i, seed = i+1, seed+1 {
		if seed == 0 {
			seed = 1
		}
		seedList[i] = seed
		bySeed[i] = nameAll(apps, func(app string) sweep {
			return nameSweep(pols, func(p string) *Cell { return s.XenSeeded(app, p, true, seed) })
		})
	}

	tables := make([]*Table, 0, len(apps))
	for a, app := range apps {
		tables = append(tables, seedSweepTable(app, seedList, pols, bySeed, a))
	}
	return tables
}

// seedSweepTable builds one app's stability table from its sweeps
// bySeed[i][a], one per seed seedList[i].
func seedSweepTable(app string, seedList []uint64, pols []string, bySeed [][]sweep, a int) *Table {
	seeds := len(seedList)
	wins := make(map[string]int, len(pols))
	mean := make(map[string]float64, len(pols))
	var perSeed []string
	for i, seed := range seedList {
		w := bySeed[i][a]
		for _, pol := range pols {
			mean[pol] += float64(w.result(pol).Completion) / float64(seeds)
		}
		best, _ := w.best()
		wins[best]++
		perSeed = append(perSeed, fmt.Sprintf("seed %d → %s", seed, Abbrev(best)))
	}

	// Rank by mean completion; ties keep registration order (sort is
	// stable over the deterministic pols slice).
	order := append([]string(nil), pols...)
	sort.SliceStable(order, func(a, b int) bool { return mean[order[a]] < mean[order[b]] })

	t := &Table{
		ID:     "sweep-seeds",
		Title:  fmt.Sprintf("Best-policy stability for %s across %d seeds (Xen+)", app, seeds),
		Header: []string{"policy", "abbrev", "mean completion", fmt.Sprintf("wins/%d", seeds)},
	}
	for _, pol := range order {
		t.Rows = append(t.Rows, []string{
			pol, Abbrev(pol), sim.Time(mean[pol]).String(), fmt.Sprintf("%d", wins[pol])})
	}
	modal, modalWins := order[0], wins[order[0]]
	for _, pol := range order {
		if wins[pol] > modalWins {
			modal, modalWins = pol, wins[pol]
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("modal best %s wins %d/%d seeds", Abbrev(modal), modalWins, seeds),
		strings.Join(perSeed, "; "))
	return t
}
