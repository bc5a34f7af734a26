package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maporder flags `for range` over a map in the determinism-critical
// packages whenever the loop body does order-dependent work: float
// accumulation (the class of bug fixed in fillLoads in PR 1 — float
// addition does not commute bit-for-bit), appending to a result slice,
// or mutating simulation state (including through calls). Go randomizes
// map iteration order per range statement, so any such loop makes two
// identical runs diverge.
//
// One shape is exempt: a body that only collects the map's keys into a
// slice (`for k := range m { keys = append(keys, k) }`) — the canonical
// first half of the iterate-sorted-keys idiom. The exemption does not
// verify the subsequent sort; pairing the collection with its sort is
// the reviewer's half of the contract.
var Maporder = &Analyzer{
	Name:  "maporder",
	Doc:   "flag order-dependent work inside range-over-map loops in determinism-critical packages",
	Scope: detCritical,
	Run:   runMaporder,
}

func runMaporder(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if isKeyCollection(pass, rs) {
				return true
			}
			if reason := orderDependentWork(pass, rs); reason != "" {
				pass.Reportf(rs.For,
					"iteration over map %s %s; iterate sorted keys instead",
					types.ExprString(rs.X), reason)
			}
			return true
		})
	}
	return nil
}

// isKeyCollection reports whether the loop body is exactly
// `keys = append(keys, k)` with k the range key — pure key collection,
// exempt because a subsequent sort erases the iteration order.
func isKeyCollection(pass *Pass, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return false
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(dst) != pass.TypesInfo.ObjectOf(lhs) {
		return false
	}
	keyArg, ok := call.Args[1].(*ast.Ident)
	if !ok {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	return pass.TypesInfo.ObjectOf(keyArg) == pass.TypesInfo.ObjectOf(key)
}

// orderDependentWork classifies the loop body, returning a description
// of the first (most specific) order-dependent effect, or "" for a body
// whose effects cannot depend on iteration order.
func orderDependentWork(pass *Pass, rs *ast.RangeStmt) string {
	info := pass.TypesInfo
	bodyStart, bodyEnd := rs.Body.Pos(), rs.Body.End()
	loopLocal := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return true // blank identifier
		}
		return obj.Pos() >= bodyStart && obj.Pos() < bodyEnd ||
			obj.Pos() >= rs.Pos() && obj.Pos() < rs.Body.Pos() // the range key/value themselves
	}

	var floats, appends bool
	var mutation string
	note := func(s string) {
		if mutation == "" {
			mutation = s
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			if n.Tok != token.ASSIGN { // compound: +=, -=, *=, /=, ...
				if t := info.TypeOf(n.Lhs[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
						floats = true
						return true
					}
				}
				if !loopLocal(n.Lhs[0]) {
					note("updates " + types.ExprString(n.Lhs[0]))
				}
				return true
			}
			for _, l := range n.Lhs {
				if !loopLocal(l) {
					note("writes " + types.ExprString(l))
				}
			}
		case *ast.IncDecStmt:
			if !loopLocal(n.X) {
				note("updates " + types.ExprString(n.X))
			}
		case *ast.CallExpr:
			if info.Types[n.Fun].IsType() { // conversion
				return true
			}
			switch {
			case isBuiltin(pass, n.Fun, "append"):
				appends = true
			case isBuiltin(pass, n.Fun, "delete"):
				note("deletes from " + types.ExprString(n.Args[0]))
			case isBuiltin(pass, n.Fun, "len"), isBuiltin(pass, n.Fun, "cap"),
				isBuiltin(pass, n.Fun, "min"), isBuiltin(pass, n.Fun, "max"),
				isBuiltin(pass, n.Fun, "panic"):
				// Pure, or terminates the run.
			default:
				note("calls " + types.ExprString(n.Fun))
			}
		case *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt:
			note("has order-dependent control flow")
		case *ast.ReturnStmt:
			note("returns mid-iteration (nondeterministic choice of element)")
		}
		return true
	})
	switch {
	case floats:
		return "accumulates floating-point values in iteration order (float addition does not commute bit-for-bit)"
	case appends:
		return "appends to a result slice in iteration order"
	case mutation != "":
		return mutation + " in iteration order"
	}
	return ""
}

// isBuiltin reports whether fun denotes the named builtin.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return ok
}
