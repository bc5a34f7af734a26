package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Noalloc checks functions annotated //xnuma:noalloc — the epoch hot
// path — for AST-level allocation forms: make/new, slice/map/pointer
// composite literals, growing appends onto non-scratch slices, function
// literals (closures), fmt calls, string building, and concrete-to-
// interface conversions (boxing). TestEpochAllocFree already proves
// that (*Runner).epoch allocates nothing in the steady state; this
// analyzer adds source-level attribution — it names the line that
// would break that test, before it runs.
//
// Two growth idioms are deliberately legal, because the hot path
// amortizes them:
//
//   - allocation under an if whose condition tests cap/len or nil —
//     scratch growth and lazy cache warm-up (foldRows, combinedDistInto,
//     Region.Dist);
//   - append onto a `buf[:0]`-style slice expression or onto a
//     declaration marked //xnuma:scratch — reuse of capacity, not
//     growth.
//
// Arguments of panic() are exempt: a panicking run is already off the
// measured path.
var Noalloc = &Analyzer{
	Name:  "noalloc",
	Doc:   "forbid allocation forms inside functions annotated //xnuma:noalloc",
	Scope: simPackage,
	Run:   runNoalloc,
}

func runNoalloc(pass *Pass) error {
	scratch := scratchLines(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !HasNoallocAnnotation(fn) {
				continue
			}
			checkNoalloc(pass, fn, scratch)
		}
	}
	return nil
}

func checkNoalloc(pass *Pass, fn *ast.FuncDecl, scratch map[string]map[int]bool) {
	info := pass.TypesInfo
	parents := parentMap(fn.Body)

	// guarded reports whether n sits under an if whose condition tests
	// capacity (cap/len call) or nil — the amortized-growth idiom.
	guarded := func(n ast.Node) bool {
		for p := parents[n]; p != nil; p = parents[p] {
			ifs, ok := p.(*ast.IfStmt)
			if !ok {
				continue
			}
			if condIsCapacityTest(pass, ifs.Cond) {
				return true
			}
		}
		return false
	}
	inPanicArg := func(n ast.Node) bool {
		for p := parents[n]; p != nil; p = parents[p] {
			if call, ok := p.(*ast.CallExpr); ok && isBuiltin(pass, call.Fun, "panic") {
				return true
			}
		}
		return false
	}
	report := func(n ast.Node, form, hint string) {
		if inPanicArg(n) {
			return
		}
		pass.Reportf(n.Pos(), "%s in //xnuma:noalloc function %s (%s)", form, fn.Name.Name, hint)
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case isBuiltin(pass, n.Fun, "make"), isBuiltin(pass, n.Fun, "new"):
				if !guarded(n) {
					report(n, types.ExprString(n.Fun)+" call", "hot-path allocation; pre-size the buffer, or guard growth with a cap/len or nil check")
				}
			case isBuiltin(pass, n.Fun, "append"):
				if !guarded(n) && !appendsToScratch(pass, n, scratch) {
					report(n, "append onto non-scratch slice "+types.ExprString(n.Args[0]),
						"may grow per call; append onto buf[:0], or mark the buffer //xnuma:scratch")
				}
			case isFmtCall(pass, n):
				report(n, types.ExprString(n.Fun)+" call", "fmt allocates on every call; format off the hot path")
			default:
				checkBoxedArgs(pass, n, report)
			}
			if conv, boxes := isBoxingConversion(pass, n); conv {
				if boxes {
					report(n, "conversion "+types.ExprString(n.Fun)+"(...)", "boxing a value into an interface allocates")
				}
				return true
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				if !guarded(n) {
					report(n, "slice literal "+types.ExprString(n.Type)+"{...}", "hot-path allocation; use a scratch buffer")
				}
				return false
			case *types.Map:
				if !guarded(n) {
					report(n, "map literal "+types.ExprString(n.Type)+"{...}", "hot-path allocation; use a scratch structure")
				}
				return false
			default:
				if u, ok := parents[n].(*ast.UnaryExpr); ok && u.Op == token.AND && !guarded(n) {
					report(u, "&"+types.ExprString(n.Type)+"{...}", "heap-allocates a new object per call; reuse one")
					return false
				}
			}
		case *ast.FuncLit:
			report(n, "function literal", "closures allocate; hoist to a named function or method value stored once")
			return false
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := info.TypeOf(n); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(n, "string concatenation", "builds a new string per call")
					}
				}
			}
		case *ast.AssignStmt:
			checkBoxedAssign(pass, n, report)
		}
		return true
	})
}

// parentMap records each node's parent within root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// condIsCapacityTest reports whether cond mentions cap()/len() or
// compares against nil — the shapes of the amortized-growth guard.
func condIsCapacityTest(pass *Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(pass, n.Fun, "cap") || isBuiltin(pass, n.Fun, "len") {
				found = true
			}
		case *ast.Ident:
			if n.Name == "nil" {
				found = true
			}
		}
		return !found
	})
	return found
}

// appendsToScratch reports whether the append's destination is a
// reused buffer: a slice expression (buf[:0]) or a declaration marked
// //xnuma:scratch.
func appendsToScratch(pass *Pass, call *ast.CallExpr, scratch map[string]map[int]bool) bool {
	if len(call.Args) == 0 {
		return false
	}
	switch dst := call.Args[0].(type) {
	case *ast.SliceExpr:
		return true
	case *ast.StarExpr:
		// *p where p points at a scratch buffer (the pageSet move log).
		inner := *call
		inner.Args = append([]ast.Expr{dst.X}, call.Args[1:]...)
		return appendsToScratch(pass, &inner, scratch)
	case *ast.Ident:
		if obj := pass.TypesInfo.ObjectOf(dst); obj != nil {
			return scratchAnnotated(pass.Fset, scratch, obj.Pos())
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[dst]; ok {
			return scratchAnnotated(pass.Fset, scratch, sel.Obj().Pos())
		}
		if obj := pass.TypesInfo.ObjectOf(dst.Sel); obj != nil {
			return scratchAnnotated(pass.Fset, scratch, obj.Pos())
		}
	}
	return false
}

// isFmtCall reports whether call invokes a function from package fmt.
func isFmtCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName)
	return ok && pn.Imported().Path() == "fmt"
}

// isBoxingConversion reports whether call is a type conversion, and if
// so whether it boxes a concrete non-pointer value into an interface or
// builds a string from a byte/rune slice.
func isBoxingConversion(pass *Pass, call *ast.CallExpr) (conv, boxes bool) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false, false
	}
	dst := tv.Type
	src := pass.TypesInfo.TypeOf(call.Args[0])
	if src == nil {
		return true, false
	}
	if types.IsInterface(dst.Underlying()) {
		return true, boxingValue(src)
	}
	if b, ok := dst.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		if _, fromSlice := src.Underlying().(*types.Slice); fromSlice {
			return true, true
		}
	}
	return true, false
}

// boxingValue reports whether storing a value of type t into an
// interface allocates: anything but a pointer, an existing interface,
// or untyped nil.
func boxingValue(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UntypedNil
	}
	return true
}

// checkBoxedArgs flags concrete non-pointer arguments passed to
// interface-typed parameters — each one boxes.
func checkBoxedArgs(pass *Pass, call *ast.CallExpr, report func(ast.Node, string, string)) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no boxing
			}
			last := params.At(params.Len() - 1).Type()
			sl, ok := last.Underlying().(*types.Slice)
			if !ok {
				continue
			}
			pt = sl.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || !boxingValue(at) {
			continue
		}
		report(arg, "interface argument "+types.ExprString(arg),
			"boxing a value into an interface parameter allocates")
	}
}

// checkBoxedAssign flags assignments of concrete non-pointer values to
// interface-typed destinations.
func checkBoxedAssign(pass *Pass, as *ast.AssignStmt, report func(ast.Node, string, string)) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, l := range as.Lhs {
		lt := pass.TypesInfo.TypeOf(l)
		if lt == nil || !types.IsInterface(lt.Underlying()) {
			continue
		}
		rt := pass.TypesInfo.TypeOf(as.Rhs[i])
		if rt == nil || !boxingValue(rt) {
			continue
		}
		report(as.Rhs[i], "interface assignment to "+types.ExprString(l),
			"boxing a value into an interface allocates")
	}
}
