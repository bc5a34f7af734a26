// Package advisor promotes the policy-selection rule of the paper's
// §3.5.2 into a library: run a cheap first-touch probe, classify the
// application's memory-access imbalance (metrics.Classify), and map the
// class to a policy — high → round-4K/Carrefour, moderate →
// first-touch/Carrefour, low → first-touch. The paper measures this
// rule at a 1–2 % average loss over its five policies and closes by
// noting that automatic in-hypervisor selection "remains an open
// subject" (§7); Validate quantifies exactly that gap against an
// exhaustive sweep over a candidate set bounded by the policy
// registry's metadata (never a boot-only layout as a runtime choice,
// Carrefour only where it stacks). Every kind except boot-only layouts
// runs natively too, so one candidate set serves both targets.
package advisor

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/policy"
)

// Target selects the platform a recommendation is for.
type Target int

const (
	// TargetXen advises a policy for a VM under Xen+ (selected at run
	// time through HypercallSetPolicy, so boot-only layouts are out).
	TargetXen Target = iota
	// TargetLinux advises a native-Linux policy (every kind except
	// boot-only layouts exists there).
	TargetLinux
)

func (t Target) String() string {
	if t == TargetLinux {
		return "linux"
	}
	return "xen"
}

// probePolicy is the cheap profiling run the rule classifies: one
// first-touch execution, as in §3.5.2.
const probePolicy = "first-touch"

// DefaultApps is the demonstration set spanning the three imbalance
// classes, advised by `xnuma advise` and serve when no app is named.
var DefaultApps = []string{"facesim", "bt.C", "cg.C", "kmeans", "mg.D"}

// RuleFor maps an imbalance class to the §3.5.2 policy choice. It is
// the whole rule: everything else in this package is probing, bounding
// and validating.
func RuleFor(class metrics.ImbalanceClass) string {
	switch class {
	case metrics.ClassHigh:
		return "round-4k/carrefour"
	case metrics.ClassModerate:
		return "first-touch/carrefour"
	default:
		return "first-touch"
	}
}

// Candidates returns the policies the advisor may propose or validate
// against, bounded by registry metadata instead of a hard-coded list:
//
//   - boot-only layouts (round-1G) are excluded — the advisor's output
//     is applied to a running VM through the SetPolicy hypercall, which
//     rejects them (§4.2.1), and Linux has no such layout;
//   - Carrefour-stacked variants (including the §7 migration-only and
//     replication-only knobs) appear only where the descriptor allows
//     stacking.
//
// Parameterized kinds are instantiated with their default argument.
func Candidates() []string {
	var out []string
	for _, d := range policy.List() {
		if d.BootOnly {
			continue
		}
		name := d.DefaultSpelling()
		out = append(out, name)
		if d.Carrefour {
			out = append(out, name+"/carrefour",
				name+"/carrefour:"+policy.CarrefourMigrationOnly,
				name+"/carrefour:"+policy.CarrefourReplicationOnly)
		}
	}
	return out
}

// Recommendation is the advisor's output for one application.
type Recommendation struct {
	App    string
	Target Target
	// Imbalance is the probe run's memory-access imbalance (%).
	Imbalance float64
	// Class is the paper's three-way classification of the probe.
	Class metrics.ImbalanceClass
	// Policy is the advised configuration (RuleFor applied to Class).
	Policy string
	// Candidates is the registry-bounded set Validate sweeps.
	Candidates []string
}

// cell names app's cell under pol on the target's platform.
func cell(s *exp.Suite, target Target, app, pol string) *exp.Cell {
	if target == TargetLinux {
		return s.Linux(app, pol, true)
	}
	return s.Xen(app, pol, true)
}

// sweep names app's cells under pols, in order, before any is read.
func sweep(s *exp.Suite, target Target, app string, pols []string) []*exp.Cell {
	cells := make([]*exp.Cell, len(pols))
	for i, pol := range pols {
		cells[i] = cell(s, target, app, pol)
	}
	return cells
}

// Advise runs the probe for app on the suite (a cache hit when the
// probe already ran) and applies the rule. The returned recommendation
// always proposes a member of Candidates().
func Advise(s *exp.Suite, target Target, app string) Recommendation {
	probe := cell(s, target, app, probePolicy).Result()
	class := metrics.Classify(probe.Imbalance)
	return Recommendation{
		App:        app,
		Target:     target,
		Imbalance:  probe.Imbalance,
		Class:      class,
		Policy:     RuleFor(class),
		Candidates: Candidates(),
	}
}

// Validation measures a recommendation against the exhaustive sweep of
// its candidate set.
type Validation struct {
	// Best is the candidate minimizing completion.
	Best string
	// Gap is the relative loss of following the advice instead of the
	// sweep's best (0 = the advice was optimal; the paper reports 1–2 %
	// for this rule over its five policies).
	Gap float64
}

// Validate sweeps rec's candidate set, naming every candidate before it
// reads any, and returns the advice gap.
func Validate(s *exp.Suite, rec Recommendation) Validation {
	cands := sweep(s, rec.Target, rec.App, rec.Candidates)
	best, bestRes := "", engine.Result{}
	for i, pol := range rec.Candidates {
		r := cands[i].Result()
		if best == "" || r.Completion < bestRes.Completion {
			best, bestRes = pol, r
		}
	}
	advised := cell(s, rec.Target, rec.App, rec.Policy).Result()
	return Validation{
		Best: best,
		Gap:  float64(advised.Completion)/float64(bestRes.Completion) - 1,
	}
}

// Table renders advisor output for several applications as an
// experiment-style table: probe, class, advice, sweep best and gap per
// row. It names every app's candidate sweep and probe before it reads
// any cell, so the whole batch runs at the pool's full width; Advise and
// Validate then name the same cells again, which only returns their
// handles.
func Table(s *exp.Suite, target Target, apps []string) *exp.Table {
	for _, app := range apps {
		sweep(s, target, app, Candidates())
		cell(s, target, app, probePolicy)
	}
	t := &exp.Table{
		ID:     "advise",
		Title:  fmt.Sprintf("Policy advice (§3.5.2 rule) vs exhaustive sweep, %s target", target),
		Header: []string{"app", "imbalance", "class", "advised", "best (sweep)", "advice gap"},
	}
	for _, app := range apps {
		rec := Advise(s, target, app)
		val := Validate(s, rec)
		t.Rows = append(t.Rows, []string{
			app, fmt.Sprintf("%.0f%%", rec.Imbalance), rec.Class.String(),
			rec.Policy, val.Best, fmt.Sprintf("%+.0f%%", 100*val.Gap)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("candidate set: %d policies bounded by registry metadata", len(Candidates())),
		"gap = advised completion vs the sweep's best; the paper measures 1-2% average loss for this rule over its five policies (§3.5.2)")
	return t
}
