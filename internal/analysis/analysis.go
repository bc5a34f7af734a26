// Package analysis is the repo's invariant-analyzer suite: a small,
// dependency-free analogue of golang.org/x/tools/go/analysis (which this
// module deliberately does not depend on) plus four repo-specific
// analyzers that turn conventions the code base holds by discipline into
// machine-checked invariants:
//
//   - maporder: no order-dependent work inside `for range` over a map in
//     the determinism-critical packages (bit-for-bit reproducibility).
//   - detrand: no math/rand, time.Now or os.Getenv in simulation
//     packages — all randomness flows through internal/sim's seeded
//     streams and all time is virtual.
//   - noalloc: functions annotated //xnuma:noalloc (the epoch hot path)
//     contain no AST-level allocation forms, giving source-level
//     attribution that complements TestEpochAllocFree's count.
//   - aliasretain: results of the documented internal-slice accessors
//     (Region.Dist/AccessDist/HotDist, Instance.row, Runner.cycRow) are
//     not stored into struct fields or globals.
//
// The invariants exist because the repo's claim to reproduce the
// paper's result tables (Tables 2-3, Figures 5-8) rests on runs being a
// pure function of the seed: the golden engine fixture and the
// seed-keyed cell cache both assume bit-for-bit determinism, and
// TestEpochAllocFree assumes a zero-alloc hot path.
//
// The suite runs via cmd/xnuma-vet over package patterns loaded through
// go list (driver.go, loader.go); scripts/vet.sh is the CI entry point.
// Findings are suppressed line-by-line with `//xnuma:<analyzer>-ok
// <reason>` comments; a suppression without a reason, or one that no
// longer matches a diagnostic, is itself a diagnostic, so suppressions
// cannot silently accumulate (suppress.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one invariant check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the checks could migrate to
// the real framework if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// comments (//xnuma:<name>-ok).
	Name string
	// Doc is the one-paragraph description shown by `xnuma-vet -help`.
	Doc string
	// Scope reports whether the analyzer applies to the package with the
	// given import path; RunAnalyzers skips the package otherwise. A nil
	// Scope means every package.
	Scope func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// isTestFile reports whether the file at pos is a _test.go file. The
// analyzers police production simulation code; tests iterate maps for
// their own order-independent assertions and are exempt.
func (p *Pass) isTestFile(pos token.Pos) bool {
	name := p.Fset.Position(pos).Filename
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

// RunResult is what running the suite over one package yields.
type RunResult struct {
	// Diagnostics are the surviving findings, position-sorted. This
	// includes the meta-diagnostics from suppression hygiene (missing
	// reason, unused suppression).
	Diagnostics []Diagnostic
	// Suppressed are findings silenced by a valid suppression comment.
	Suppressed []Diagnostic
	// Suppressions is every valid suppression found in the package,
	// whether or not it fired, for the -suppressions inventory.
	Suppressions []Suppression
}

// RunAnalyzers runs the given analyzers over one loaded package,
// honoring each analyzer's Scope. It applies the //xnuma:<name>-ok
// suppression protocol to the raw findings.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) (RunResult, error) {
	var raw []Diagnostic
	var active []string
	for _, a := range analyzers {
		active = append(active, a.Name)
		if a.Scope != nil && !a.Scope(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return RunResult{}, fmt.Errorf("%s: %w", a.Name, err)
		}
		raw = append(raw, pass.diags...)
	}
	res := applySuppressions(pkg, active, raw)
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		return res.Diagnostics[i].Pos < res.Diagnostics[j].Pos
	})
	return res, nil
}
