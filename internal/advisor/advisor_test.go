package advisor

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/linux"
	"repro/internal/metrics"
	"repro/internal/numa"
	"repro/internal/policy"
)

// TestRuleMatchesPaper pins the §3.5.2 mapping — the recommendation the
// original policy-advisor example produced per imbalance class.
func TestRuleMatchesPaper(t *testing.T) {
	cases := map[metrics.ImbalanceClass]string{
		metrics.ClassHigh:     "round-4k/carrefour",
		metrics.ClassModerate: "first-touch/carrefour",
		metrics.ClassLow:      "first-touch",
	}
	for class, want := range cases {
		if got := RuleFor(class); got != want {
			t.Errorf("RuleFor(%v) = %q, want %q", class, got, want)
		}
	}
}

// TestCandidatesBoundedByRegistry: the bounded-search property. The
// advisor must never propose a boot-only policy as a runtime choice,
// never stack Carrefour (or a variant) on an unstackable policy, and
// never propose a policy the native backend cannot run.
func TestCandidatesBoundedByRegistry(t *testing.T) {
	cands := Candidates()
	if len(cands) == 0 {
		t.Fatal("empty candidate set")
	}
	for _, c := range cands {
		cfg, err := policy.Parse(c)
		if err != nil {
			t.Errorf("candidate %q does not parse: %v", c, err)
			continue
		}
		d, _, err := policy.Describe(cfg.Static)
		if err != nil {
			t.Errorf("candidate %q unknown to the registry: %v", c, err)
			continue
		}
		if d.BootOnly {
			t.Errorf("candidate %q is a boot-only layout", c)
		}
		if cfg.Carrefour && !d.Carrefour {
			t.Errorf("candidate %q stacks carrefour on an unstackable policy", c)
		}
		if _, err := linux.New(numa.AMD48Scaled(1), cfg); err != nil {
			t.Errorf("linux: candidate %q does not run natively: %v", c, err)
		}
	}
}

// TestCandidatesIncludeVariantKnobs: the §7 knobs and the adaptive
// policy widen the search space beyond the paper's five policies.
func TestCandidatesIncludeVariantKnobs(t *testing.T) {
	has := func(set []string, want string) bool {
		for _, s := range set {
			if s == want {
				return true
			}
		}
		return false
	}
	cands := Candidates()
	for _, want := range []string{
		"adaptive", "adaptive/carrefour",
		"first-touch/carrefour:migration",
		"round-4k/carrefour:replication",
	} {
		if !has(cands, want) {
			t.Errorf("candidates missing %q", want)
		}
	}
	if has(cands, "round-1g") || has(cands, "round-1g/carrefour") {
		t.Error("candidates include the boot-only round-1G")
	}
}

// TestAdviseProposesACandidate: the advised policy is always inside the
// bounded set, for every imbalance class the probe can produce.
func TestAdviseProposesACandidate(t *testing.T) {
	for _, class := range []metrics.ImbalanceClass{
		metrics.ClassLow, metrics.ClassModerate, metrics.ClassHigh,
	} {
		advice := RuleFor(class)
		found := false
		for _, c := range Candidates() {
			if c == advice {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("advice %q for class %v is outside the candidate set", advice, class)
		}
	}
}

// TestAdviseEndToEnd runs a real probe on a scaled-down suite and
// validates the advice against the full bounded sweep; the gap must be
// finite and the best policy a candidate, and every cell the two calls
// named must have been computed and read by the time they return.
func TestAdviseEndToEnd(t *testing.T) {
	s := exp.NewSuite(256)
	rec := Advise(s, TargetXen, "swaptions")
	if rec.Policy != RuleFor(rec.Class) {
		t.Fatalf("recommendation %q does not follow the rule for class %v", rec.Policy, rec.Class)
	}
	val := Validate(s, rec)
	if val.Gap < 0 {
		t.Fatalf("advice gap %f < 0: best policy missed by the sweep", val.Gap)
	}
	found := false
	for _, c := range rec.Candidates {
		if c == val.Best {
			found = true
		}
	}
	if !found {
		t.Fatalf("sweep best %q is not a candidate", val.Best)
	}
	submitted, _ := s.SchedulerStats()
	if computed, snap := s.CellsComputed(), len(s.Snapshot()); submitted != computed || computed != int64(snap) {
		t.Errorf("%d tasks submitted, %d cells computed, %d in the snapshot; want all equal",
			submitted, computed, snap)
	}
}

// TestAdviseDefaultAppsUnchanged pins the recommendation for the five
// applications `xnuma advise` defaults to (DefaultApps) — the library
// must return exactly what the pre-library example printed (§3.5.2
// probe at the default scale and seed).
func TestAdviseDefaultAppsUnchanged(t *testing.T) {
	want := map[string]string{
		"facesim": "round-4k/carrefour",
		"bt.C":    "first-touch/carrefour",
		"cg.C":    "first-touch",
		"kmeans":  "round-4k/carrefour",
		"mg.D":    "first-touch",
	}
	s := exp.NewSuite(64)
	for app := range want {
		s.Xen(app, "first-touch", true)
	}
	for app, pol := range want {
		if rec := Advise(s, TargetXen, app); rec.Policy != pol {
			t.Errorf("Advise(%s) = %q (class %v, imbalance %.0f%%), want %q",
				app, rec.Policy, rec.Class, rec.Imbalance, pol)
		}
	}
}
