package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Aliasretain polices the documented internal-slice accessors in
// internal/engine: Region.Dist/AccessDist/HotDist hand out the region's
// cached distribution buffers, stream.distFor and Instance.row hand out
// rows of the folded row buffer the instance owns (refilled in place by
// foldRows), and runner.cycRow hands out rows of the per-iteration
// cost-matrix scratch. Callers may read them within the current epoch
// (cycRow: within the current iteration), but storing one into a
// struct field, a composite literal field or a package-level variable
// retains a view that the next cache refresh, foldRows repack or
// fillCycles pass silently invalidates — the aliasing bug class the
// row-table flattening in PR 5 made possible.
//
// The analyzer runs over the whole repo: any package may call into
// engine.
var Aliasretain = &Analyzer{
	Name: "aliasretain",
	Doc:  "forbid retaining internal-slice accessor results in fields or globals",
	Run:  runAliasretain,
}

// aliasAccessors names the methods whose results alias internal
// buffers, keyed by receiver type name.
var aliasAccessors = map[string]map[string]bool{
	"Region":   {"Dist": true, "AccessDist": true, "HotDist": true},
	"stream":   {"distFor": true},
	"Instance": {"row": true},
	"runner":   {"cycRow": true},
}

// aliasAccessorPkg restricts the receiver types to the engine package
// (testdata packages declare their own lookalikes for the golden
// tests).
func aliasAccessorPkg(path string) bool {
	return canonicalPath(path) == "repro/internal/engine" || strings.Contains(path, "testdata")
}

func runAliasretain(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, r := range n.Rhs {
					name, ok := accessorCall(pass, r)
					if !ok {
						continue
					}
					// With multiple RHS values the columns pair up; with a
					// single call the call is the lone RHS.
					var lhs ast.Expr
					if len(n.Lhs) == len(n.Rhs) {
						lhs = n.Lhs[i]
					} else {
						lhs = n.Lhs[0]
					}
					if where := retainingLValue(pass, lhs); where != "" {
						pass.Reportf(r.Pos(),
							"result of %s stored in %s outlives the epoch that produced it (the accessor returns an internal buffer the next refresh repacks); copy the values or annotate //xnuma:aliasretain-ok <reason>",
							name, where)
					}
				}
			case *ast.KeyValueExpr:
				if name, ok := accessorCall(pass, n.Value); ok {
					pass.Reportf(n.Value.Pos(),
						"result of %s stored in composite-literal field %s outlives the epoch that produced it (the accessor returns an internal buffer the next refresh repacks); copy the values or annotate //xnuma:aliasretain-ok <reason>",
						name, types.ExprString(n.Key))
				}
			case *ast.ValueSpec:
				// Only package-level specs retain; locals die with the frame.
				for _, v := range n.Values {
					name, ok := accessorCall(pass, v)
					if !ok {
						continue
					}
					if len(n.Names) > 0 {
						if obj := pass.TypesInfo.ObjectOf(n.Names[0]); obj != nil && obj.Parent() == pass.Pkg.Scope() {
							pass.Reportf(v.Pos(),
								"result of %s stored in package-level variable %s (the accessor returns an internal buffer the next refresh repacks); copy the values or annotate //xnuma:aliasretain-ok <reason>",
								name, n.Names[0].Name)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// accessorCall reports whether e is a call to one of the internal-slice
// accessors, returning a printable name.
func accessorCall(pass *Pass, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !aliasAccessorPkg(obj.Pkg().Path()) {
		return "", false
	}
	if !aliasAccessors[obj.Name()][fn.Name()] {
		return "", false
	}
	return obj.Name() + "." + fn.Name(), true
}

// retainingLValue classifies an assignment destination that outlives
// the call site: a struct field, an element of a field, or a
// package-level variable. Locals return "".
func retainingLValue(pass *Pass, lhs ast.Expr) string {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if _, isField := pass.TypesInfo.Selections[l]; isField {
			return "field " + types.ExprString(l)
		}
		// Qualified package identifier (pkg.Var): a global.
		if id, ok := l.X.(*ast.Ident); ok {
			if _, isPkg := pass.TypesInfo.ObjectOf(id).(*types.PkgName); isPkg {
				return "package-level variable " + types.ExprString(l)
			}
		}
	case *ast.IndexExpr:
		if inner := retainingLValue(pass, l.X); inner != "" {
			return "element of " + inner
		}
		// An element of a local slice of slices still escapes the
		// statement, but only fields/globals survive the frame; locals
		// are fine.
	case *ast.StarExpr:
		return "dereferenced pointer " + types.ExprString(l)
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(l)
		if obj != nil && obj.Parent() == pass.Pkg.Scope() {
			return "package-level variable " + l.Name
		}
	}
	return ""
}
