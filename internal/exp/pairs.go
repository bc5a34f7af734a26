package exp

import (
	"cmp"
	"fmt"
	"strconv"

	xennuma "repro"
	"repro/internal/engine"
)

// Pair names two applications sharing the machine.
type Pair struct{ A, B string }

// Fig8Pairs are the colocated-VM configurations (24 vCPUs each, half the
// nodes each). The paper's figure names five pairs; its text highlights
// cg.C with sp.C as the best case. The axis labels are not recoverable
// from the paper text, so the remaining pairs cover the three imbalance
// classes.
var Fig8Pairs = []Pair{
	{"cg.C", "sp.C"},
	{"facesim", "streamcluster"},
	{"kmeans", "pca"},
	{"ft.C", "bt.C"},
	{"wc", "wrmem"},
}

// Fig9Pairs are the consolidated-VM configurations (48 vCPUs each, every
// physical CPU running two vCPUs); six pairs, for eleven configurations
// total as in the paper.
var Fig9Pairs = []Pair{
	{"cg.C", "sp.C"},
	{"facesim", "kmeans"},
	{"streamcluster", "pca"},
	{"bt.C", "lu.C"},
	{"wc", "wrmem"},
	{"ft.C", "mg.D"},
}

// XenPair names a two-VM configuration under Xen+: a single cell whose
// two Results are VM A's and VM B's. polA and polB are spelled as for
// Linux. The cell reads its seed if either VM's run does.
func (s *Suite) XenPair(a, polA, b, polB string, mode xennuma.PairMode, swap bool) *Cell {
	pa, errA := xennuma.ParsePolicy(polA)
	pb, errB := xennuma.ParsePolicy(polB)
	err := cmp.Or(errA, errB)
	reads := err != nil || xennuma.ReadsSeed(a, pa) || xennuma.ReadsSeed(b, pb)
	cl, created := s.claim(s.baseSeed(), reads, "pair/", a, "=", polA, "/", b, "=", polB,
		"/mode=", strconv.Itoa(int(mode)), "/swap=", strconv.FormatBool(swap))
	if created {
		s.submit(cl, err, func(o xennuma.Options) ([]engine.Result, error) {
			o.XenPlus = true
			ra, rb, err := xennuma.RunXenPair(a, pa, b, pb, mode, swap, o)
			if err != nil {
				return nil, err
			}
			return []engine.Result{ra, rb}, nil
		})
	}
	return cl
}

// pairSwaps returns the node-assignment variants one pair configuration
// needs: colocated runs average both halves (§5.4.2), consolidated runs
// have a single assignment.
func pairSwaps(mode xennuma.PairMode) []bool {
	if mode == xennuma.Colocated {
		return []bool{false, true}
	}
	return []bool{false}
}

// pairRuns is one pair's two-VM cells: with the default policy
// (round-1G) and with each VM's best single-VM policy, one cell per
// node assignment.
type pairRuns struct {
	polA, polB string
	def, best  []*Cell
}

// improvement returns the best policies' improvement over the default
// per VM. Colocated runs average the two node assignments, as the paper
// does (§5.4.2).
func (r pairRuns) improvement() (imprA, imprB float64) {
	mean := func(cells []*Cell) (a, b float64) {
		for _, c := range cells {
			res := c.Results()
			a += float64(res[0].Completion)
			b += float64(res[1].Completion)
		}
		return a / float64(len(cells)), b / float64(len(cells))
	}
	baseA, baseB := mean(r.def)
	bestA, bestB := mean(r.best)
	return baseA/bestA - 1, baseB/bestB - 1
}

// pairFigure tabulates one pair figure. It names every pair's
// single-VM sweeps first (an app shared by two pairs is named twice,
// which is a no-op), then reads each pair's best policies and names its
// two-VM cells, then reads those: each phase's cells run concurrently
// on the suite's workers.
func pairFigure(s *Suite, id, title string, pairs []Pair, mode xennuma.PairMode) *Table {
	sweeps := nameAll(pairs, func(p Pair) [2]sweep { return [2]sweep{s.xenSweep(p.A), s.xenSweep(p.B)} })
	runs := make([]pairRuns, len(pairs))
	for i, p := range pairs {
		r := &runs[i]
		r.polA, _ = sweeps[i][0].best()
		r.polB, _ = sweeps[i][1].best()
		for _, sw := range pairSwaps(mode) {
			r.def = append(r.def, s.XenPair(p.A, "round-1g", p.B, "round-1g", mode, sw))
			r.best = append(r.best, s.XenPair(p.A, r.polA, p.B, r.polB, mode, sw))
		}
	}
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"pair", "policy A", "impr A", "policy B", "impr B"},
	}
	over50 := 0
	for i, p := range pairs {
		ia, ib := runs[i].improvement()
		if ia > 0.5 || ib > 0.5 {
			over50++
		}
		t.Rows = append(t.Rows, []string{
			p.A + " + " + p.B, Abbrev(runs[i].polA), pct(ia), Abbrev(runs[i].polB), pct(ib)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d/%d pairs improve at least one VM by more than 50%%", over50, len(pairs)))
	return t
}

// Fig8 reports the improvement of the best NUMA policies over the Xen+
// default with two colocated VMs (24 vCPUs each).
func Fig8(s *Suite) *Table {
	return pairFigure(s, "fig8",
		"Improvement of Xen+NUMA over Xen+ with 2 colocated VMs (24 vCPUs each)",
		Fig8Pairs, xennuma.Colocated)
}

// Fig9 reports the improvement with two consolidated VMs (48 vCPUs
// each, two vCPUs per physical CPU).
func Fig9(s *Suite) *Table {
	return pairFigure(s, "fig9",
		"Improvement of Xen+NUMA over Xen+ with 2 consolidated VMs (48 vCPUs each)",
		Fig9Pairs, xennuma.Consolidated)
}

// experiments lists every paper artefact's driver in paper order, keyed
// by its experiment id. Each driver names all its cells before it reads
// any, so they run at the suite's full worker width.
var experiments = []struct {
	id string
	fn func(*Suite) *Table
}{
	{"fig1", Fig1}, {"fig2", Fig2}, {"table1", Table1}, {"table2", Table2},
	{"table3", Table3}, {"table4", Table4}, {"fig5", Fig5}, {"fig6", Fig6},
	{"fig7", Fig7}, {"fig8", Fig8}, {"fig9", Fig9}, {"fig10", Fig10},
	{"io", IOTable}, {"hcall", HypercallTable},
}

// ByID returns the driver for an experiment id, or nil.
func ByID(id string) func(*Suite) *Table {
	for _, e := range experiments {
		if e.id == id {
			return e.fn
		}
	}
	return nil
}

// IDs lists the experiment ids in paper order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}
