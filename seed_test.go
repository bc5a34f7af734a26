package xennuma_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	xennuma "repro"

	"repro/internal/advisor"
	"repro/internal/exp"
)

// TestSeedFreeRunsIgnoreSeed is the metamorphic check behind the
// suite's seed-free cells: every run for which ReadsSeed is false must
// compute bit-identical results at seeds 1 and 2. The matrix holds
// every policy the drivers name — the sweep's spellings and the
// advisor's Carrefour variants — under Xen+ and, where Linux has the
// policy, natively, for an application whose accesses burst
// (fluidanimate) and one whose do not (facesim); round-4K with
// Carrefour for every application; and a colocated pair whose bursty VM
// runs without Carrefour beside a Carrefour VM.
func TestSeedFreeRunsIgnoreSeed(t *testing.T) {
	type run struct {
		name  string
		reads bool
		exec  func(o xennuma.Options) ([]xennuma.Result, error)
	}
	var runs []run
	xen := func(app, spelling string) {
		pol := xennuma.MustPolicy(spelling)
		runs = append(runs, run{"xen/" + app + "/" + spelling, xennuma.ReadsSeed(app, pol),
			func(o xennuma.Options) ([]xennuma.Result, error) {
				r, err := xennuma.RunXen(app, pol, o)
				return []xennuma.Result{r}, err
			}})
	}
	linux := func(app, spelling string) {
		pol := xennuma.MustPolicy(spelling)
		runs = append(runs, run{"linux/" + app + "/" + spelling, xennuma.ReadsSeed(app, pol),
			func(o xennuma.Options) ([]xennuma.Result, error) {
				r, err := xennuma.RunLinux(app, pol, o)
				return []xennuma.Result{r}, err
			}})
	}
	// Linux has no boot-only layout: its policies are the advisor's
	// candidates, which add the Carrefour variants to the sweep's.
	native := advisor.Candidates()
	pols := exp.SweepPolicies()
	for _, p := range native {
		if !slices.Contains(pols, p) {
			pols = append(pols, p)
		}
	}
	for _, app := range []string{"fluidanimate", "facesim"} {
		for _, p := range pols {
			xen(app, p)
		}
		for _, p := range native {
			linux(app, p)
		}
	}
	for _, app := range xennuma.Apps() {
		xen(app, "round-4k/carrefour")
	}
	pa, pb := xennuma.MustPolicy("first-touch"), xennuma.MustPolicy("round-4k/carrefour")
	runs = append(runs, run{"pair/cg.C=first-touch/sp.C=round-4k/carrefour",
		xennuma.ReadsSeed("cg.C", pa) || xennuma.ReadsSeed("sp.C", pb),
		func(o xennuma.Options) ([]xennuma.Result, error) {
			a, b, err := xennuma.RunXenPair("cg.C", pa, "sp.C", pb, xennuma.Colocated, false, o)
			return []xennuma.Result{a, b}, err
		}})

	start := time.Now()
	pool := xennuma.NewPool()
	checked := 0
	for _, r := range runs {
		if r.reads {
			continue
		}
		var res [2][]xennuma.Result
		for i, seed := range []uint64{1, 2} {
			var err error
			res[i], err = r.exec(xennuma.Options{Scale: 256, Seed: seed, XenPlus: true, MCS: true, Pool: pool})
			if err != nil {
				t.Fatalf("%s at seed %d: %v", r.name, seed, err)
			}
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%s reads no seed, but its results differ between seeds 1 and 2", r.name)
		}
		checked++
	}
	if checked == 0 || checked == len(runs) {
		t.Fatalf("%d of %d runs read no seed; the matrix must hold both kinds", checked, len(runs))
	}
	t.Logf("%d of %d runs read no seed and matched at seeds 1 and 2 in %v", checked, len(runs), time.Since(start).Round(time.Millisecond))
}
