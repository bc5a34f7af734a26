package exp

import (
	"fmt"

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

// pairCell is one two-VM configuration under Xen+: a single cell whose
// two results are VM A's and VM B's.
func (s *Suite) pairCell(a, polA, b, polB string, mode xennuma.PairMode, swap bool) (string, cellFn) {
	key := fmt.Sprintf("pair/%s=%s/%s=%s/mode=%d/swap=%v", a, polA, b, polB, mode, swap)
	return key, func(o xennuma.Options) ([]engine.Result, error) {
		o.XenPlus = true
		pa, err := xennuma.ParsePolicy(polA)
		if err != nil {
			return nil, err
		}
		pb, err := xennuma.ParsePolicy(polB)
		if err != nil {
			return nil, err
		}
		ra, rb, err := xennuma.RunXenPair(a, pa, b, pb, mode, swap, o)
		if err != nil {
			return nil, err
		}
		return []engine.Result{ra, rb}, nil
	}
}

// XenPair runs (and memoizes) a two-VM configuration under Xen+.
func (s *Suite) XenPair(a, polA, b, polB string, mode xennuma.PairMode, swap bool) (engine.Result, engine.Result) {
	key, fn := s.pairCell(a, polA, b, polB, mode, swap)
	r := s.results(s.baseSeed(), key, fn)
	return r[0], r[1]
}

// PrefetchXenPair schedules one two-VM configuration on the worker pool.
func (s *Suite) PrefetchXenPair(a, polA, b, polB string, mode xennuma.PairMode, swap bool) {
	key, fn := s.pairCell(a, polA, b, polB, mode, swap)
	s.prefetch(s.baseSeed(), key, fn)
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

// pairImprovement runs one pair with the default policy (round-1G) and
// with each VM's best single-VM policy, returning the improvement per
// VM. Colocated runs average the two node assignments, as the paper does
// (§5.4.2).
func (s *Suite) pairImprovement(p Pair, mode xennuma.PairMode) (imprA, imprB float64, polA, polB string) {
	polA, _ = s.BestXen(p.A)
	polB, _ = s.BestXen(p.B)
	avg := func(pa, pb string) (float64, float64) {
		var ca, cb float64
		swaps := pairSwaps(mode)
		for _, sw := range swaps {
			a, b := s.XenPair(p.A, pa, p.B, pb, mode, sw)
			ca += float64(a.Completion)
			cb += float64(b.Completion)
		}
		return ca / float64(len(swaps)), cb / float64(len(swaps))
	}
	baseA, baseB := avg("round-1g", "round-1g")
	bestA, bestB := avg(polA, polB)
	return baseA/bestA - 1, baseB/bestB - 1, polA, polB
}

// prefetchPairFigure warms every cell one pair figure reads, in two
// batches: first the single-VM policy sweeps that select each VM's best
// policy, then — once those have joined — every two-VM configuration
// (default and best, both node assignments). All cells of a batch are
// submitted up front and execute concurrently on the suite's workers.
func prefetchPairFigure(s *Suite, pairs []Pair, mode xennuma.PairMode) {
	seen := map[string]bool{}
	for _, p := range pairs {
		for _, app := range []string{p.A, p.B} {
			if !seen[app] {
				seen[app] = true
				s.PrefetchXenSweep(app)
			}
		}
	}
	s.Join()
	for _, p := range pairs {
		polA, _ := s.BestXen(p.A) // cache hits after the joined sweep
		polB, _ := s.BestXen(p.B)
		for _, sw := range pairSwaps(mode) {
			s.PrefetchXenPair(p.A, "round-1g", p.B, "round-1g", mode, sw)
			s.PrefetchXenPair(p.A, polA, p.B, polB, mode, sw)
		}
	}
	s.Join()
}

func pairFigure(s *Suite, id, title string, pairs []Pair, mode xennuma.PairMode) *Table {
	prefetchPairFigure(s, pairs, mode)
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"pair", "policy A", "impr A", "policy B", "impr B"},
	}
	over50 := 0
	for _, p := range pairs {
		ia, ib, pa, pb := s.pairImprovement(p, mode)
		if ia > 0.5 || ib > 0.5 {
			over50++
		}
		t.Rows = append(t.Rows, []string{
			p.A + " + " + p.B, Abbrev(pa), pct(ia), Abbrev(pb), pct(ib)})
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
// by its experiment id. Each driver batches its own cells onto the
// suite's worker pool.
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
