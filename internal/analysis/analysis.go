// Package analysis is the repo's invariant-analyzer suite: a small,
// dependency-free analogue of golang.org/x/tools/go/analysis (which this
// module deliberately does not depend on) plus three repo-specific
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
//
// The invariants exist because the repo's claim to reproduce the
// paper's result tables (Tables 2-3, Figures 5-8) rests on runs being a
// pure function of the seed: the golden engine fixture and the
// seed-keyed cell cache both assume bit-for-bit determinism, and
// TestEpochAllocFree assumes a zero-alloc hot path.
//
// The suite runs via cmd/xnuma-vet over package patterns loaded through
// go list (driver.go, loader.go); scripts/vet.sh is the CI entry point.
// A finding has no escape hatch: the code it names is fixed.
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
	// Name identifies the analyzer in diagnostics.
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

// RunAnalyzers runs the given analyzers over one loaded package,
// honoring each analyzer's Scope, and returns their findings sorted by
// position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Scope != nil && !a.Scope(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		diags = append(diags, pass.diags...)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
