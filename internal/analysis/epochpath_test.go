package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestEpochHotPathAnnotated pins the //xnuma:noalloc annotation set to
// the code it is meant to cover: every function statically reachable
// from (*Runner).epoch — the body of BenchmarkEpoch and
// TestEpochAllocFree, and the engine's per-quantum hot path — must
// carry the annotation, so the noalloc analyzer checks the whole path
// and a new helper slipped into the epoch cannot silently reintroduce
// per-epoch allocation.
//
// The walk is a conservative static one: calls through interfaces
// (Backend, carrefour.PageSet, sort.Interface) have no static callee
// and are skipped — their implementations are covered by
// TestEpochAllocFree, which counts the whole epoch's allocations.
// Standard-library calls are skipped for the same reason the analyzer
// allows them case by case.
func TestEpochHotPathAnnotated(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadPackages(root, "./internal/...")
	if err != nil {
		t.Fatal(err)
	}

	type decl struct {
		pkg *Package
		fn  *ast.FuncDecl
	}
	// Cross-package call sites resolve to export-data objects, which are
	// distinct from the source-built ones, so the index is keyed by the
	// stable FullName (e.g. "(*repro/internal/carrefour.Controller).Step").
	decls := map[string]decl{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				decls[obj.FullName()] = decl{pkg: pkg, fn: fn}
			}
		}
	}

	const rootFn = "(*repro/internal/engine.Runner).epoch"
	if _, ok := decls[rootFn]; !ok {
		t.Fatalf("hot-path root %s not found; did the runner change shape?", rootFn)
	}

	visited := map[string]bool{}
	var missing []string
	queue := []string{rootFn}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if visited[name] {
			continue
		}
		visited[name] = true
		d, ok := decls[name]
		if !ok {
			continue // interface method or external package
		}
		if !HasNoallocAnnotation(d.fn) {
			missing = append(missing, name)
		}
		ast.Inspect(d.fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee types.Object
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				callee = d.pkg.Info.Uses[fun]
			case *ast.SelectorExpr:
				callee = d.pkg.Info.Uses[fun.Sel]
			}
			fn, ok := callee.(*types.Func)
			if !ok { // builtin, conversion, or func-typed variable
				return true
			}
			if fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), "repro/internal/") {
				return true // stdlib or external
			}
			queue = append(queue, fn.FullName())
			return true
		})
	}

	sort.Strings(missing)
	for _, name := range missing {
		pos := decls[name].pkg.Fset.Position(decls[name].fn.Pos())
		t.Errorf("%s (%s) is reachable from %s but not annotated //xnuma:noalloc", name, pos, rootFn)
	}
	if len(missing) == 0 && len(visited) < 10 {
		t.Errorf("only %d functions reachable from %s — the call-graph walk looks broken", len(visited), rootFn)
	}
}
