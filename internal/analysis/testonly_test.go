package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	pathpkg "path"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists the functions and methods that only tests reach
// but stay, each with the reason. An entry that production code starts
// to reach, that no longer exists, that no test references, or whose
// reason names a test that does not reference it, fails the test, so
// the list cannot go stale.
var testOnlyAllowed = map[string]string{
	"(*repro/internal/engine.Instance).Regions":        "read-only view through which the cross-layer audit checks placement",
	"(*repro/internal/exp.Suite).CacheKeys":            "memoization oracle: the exp tests compare the cached cell keys across worker counts and faults",
	"(*repro/internal/faultinject.Plan).Fired":         "hit counter the fault and chaos tests reconcile with the faults they injected",
	"(*repro/internal/faultinject.Plan).Hits":          "hit counter the fault and chaos tests reconcile with the faults they injected",
	"(*repro/internal/faultinject.Plan).TotalFired":    "hit counter the fault and chaos tests reconcile with the faults they injected",
	"(*repro/internal/guest.PageQueue).Pending":        "the queue tests' count of queued, unflushed operations",
	"(*repro/internal/mem.Allocator).FreeBlocks":       "sorted free-list snapshot TestFreeBlocksDeterministic compares across identical runs",
	"(*repro/internal/mem.Allocator).TotalFreeBytes":   "frame-conservation oracle of the leak tests and the cross-layer audit",
	"(*repro/internal/metrics.EpochLoad).PathLinkUtil": "reference the engine's batched access-cost kernel is checked against",
	"repro/internal/numa.SmallMachine":                 "builds the small topologies of the unit tests",
	"(*repro/internal/xen.Domain).NodeOfPFN":           "placement oracle of the xen tests and the cross-layer audit",
	"(*repro/internal/xen.Hypervisor).HeldBytes":       "Xen frame-conservation oracle of the cross-layer audit",
}

// testOnlyFields lists the struct fields that no production code reads
// but stay, each with the reason, which names the tests that read the
// field. An entry that production code starts to read, that no longer
// exists, whose reason names no test, or whose named test does not read
// it, in its body or in a test-file function it calls, fails the test.
var testOnlyFields = map[string]string{
	"repro/internal/analysis.Package.Dir":          "TestNoTestOnlyCode finds each package's test files by it",
	"repro/internal/engine.Runner.convergedEpochs": "TestConvergedFastPathMatchesFullKernel and TestEpochAllocFree count the epochs the fast path served",
	"repro/internal/mem.FreeBlock.Order":           "part of the free-list snapshot TestFreeBlocksDeterministic compares across identical runs",
}

// testOnlyWrites lists the struct fields that no production code
// writes but stay, each with the reason, which names the tests that
// write the field. Its entries are checked as testOnlyFields' are.
var testOnlyWrites = map[string]string{
	"repro/internal/engine.Runner.noConverge": "the full-kernel reference TestConvergedFastPathMatchesFullKernel and TestEpochAllocFree hold the converged fast path to",
}

// stdCalled names the methods the standard library calls on the
// module's types, through error, fmt.Stringer and types.Importer: a
// method of one of these names counts as reached.
var stdCalled = map[string]bool{"Error": true, "String": true, "Import": true}

// TestNoTestOnlyCode fails on any function or method, in a non-test
// file of the module, that no production code reaches, and on any
// struct field that no production code reads or that no production
// code writes: code that only tests call is still code every reader
// must understand, a field only tests read is state every writer
// updates and every warm lease resets, and a field only tests write is
// a switch every production run leaves at its zero value.
//
// The roots are the main functions of cmd/* and examples/*, every
// function the bench module references, init functions and
// package-level initializers. A reference counts as a call, so method
// values and function values are followed. A call through an interface
// reaches every method of that name on a type with all the interface's
// method names, and a method named in stdCalled is reached because the
// standard library calls it.
func TestNoTestOnlyCode(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadPackages(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	benchPkgs, err := LoadPackages(filepath.Join(root, "bench"), ".")
	if err != nil {
		t.Fatal(err)
	}

	type decl struct {
		pkg  *Package
		fn   *ast.FuncDecl
		recv types.Type // the receiver's base type; nil for a function
	}
	// Keyed by FullName, as in TestEpochHotPathAnnotated: cross-package
	// references resolve to export-data objects.
	decls := map[string]decl{}
	methodsNamed := map[string][]string{}
	var queue []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				name := obj.FullName()
				decls[name] = decl{pkg: pkg, fn: fn, recv: recvBase(obj)}
				if fn.Recv != nil {
					methodsNamed[fn.Name.Name] = append(methodsNamed[fn.Name.Name], name)
					if stdCalled[fn.Name.Name] {
						queue = append(queue, name)
					}
				}
			}
		}
	}

	reached := map[string]bool{}
	calledViaIface := map[string]bool{}
	// refer queues every function or method the identifiers under n
	// name. A method named through an interface queues every method of
	// that name whose type has all of the interface's method names.
	refer := func(info *types.Info, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil || !types.IsInterface(recv.Type()) {
				queue = append(queue, fn.Origin().FullName())
				return true
			}
			iface := recv.Type().Underlying().(*types.Interface)
			key := types.TypeString(iface, nil) + "." + fn.Name()
			if calledViaIface[key] {
				return true
			}
			calledViaIface[key] = true
			for _, m := range methodsNamed[fn.Name()] {
				if hasMethodNames(decls[m].recv, iface) {
					queue = append(queue, m)
				}
			}
			return true
		})
	}
	walk := func() {
		for len(queue) > 0 {
			name := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if reached[name] {
				continue
			}
			reached[name] = true
			if d, ok := decls[name]; ok && d.fn.Body != nil {
				refer(d.pkg.Info, d.fn.Body)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					// A package may hold several init functions under one
					// FullName, so roots are walked here, not queued.
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main") {
						reached[pkg.Info.Defs[d.Name].(*types.Func).FullName()] = true
						refer(pkg.Info, d.Body)
					}
				case *ast.GenDecl:
					refer(pkg.Info, d) // package-level initializers
				}
			}
		}
	}
	for _, pkg := range benchPkgs {
		for _, f := range pkg.Files {
			refer(pkg.Info, f)
		}
	}
	walk()

	var tests []testFile
	for _, pkg := range append(pkgs, benchPkgs...) {
		tests = append(tests, parseTestFiles(t, pkg.Dir)...)
	}
	allowed := make([]string, 0, len(testOnlyAllowed))
	for name := range testOnlyAllowed {
		allowed = append(allowed, name)
	}
	sort.Strings(allowed)
	for _, name := range allowed {
		queue = append(queue, name)
		d, ok := decls[name]
		if !ok || reached[name] {
			t.Errorf("allowlist entry %s is stale: production code reaches it, or it is gone", name)
			continue
		}
		used := false
		for _, tf := range tests {
			used = used || tf.references(tf.file, d.pkg, d.fn)
		}
		if !used {
			t.Errorf("allowlist entry %s is stale: no test file references it", name)
		}
		for _, test := range testName.FindAllString(testOnlyAllowed[name], -1) {
			declared, refers := false, false
			for _, tf := range tests {
				for _, fd := range tf.file.Decls {
					if fn, ok := fd.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == test {
						declared = true
						refers = refers || tf.references(fn.Body, d.pkg, d.fn)
					}
				}
			}
			if !declared {
				t.Errorf("allowlist entry %s: its reason names %s, which no test file declares", name, test)
			} else if !refers {
				t.Errorf("allowlist entry %s: its reason names %s, whose body does not reference it", name, test)
			}
		}
	}
	// What an allowed entry calls is allowed with it.
	walk()

	// Fields are read on the same production paths: the reached
	// functions, allowlisted ones included, the package-level
	// declarations and the bench module.
	var prod []scoped
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					prod = append(prod, scoped{pkg.Info, d})
					continue
				}
				if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok && fn.Body != nil && reached[obj.FullName()] {
					prod = append(prod, scoped{pkg.Info, fn.Body})
				}
			}
		}
	}
	for _, pkg := range benchPkgs {
		for _, f := range pkg.Files {
			prod = append(prod, scoped{pkg.Info, f})
		}
	}
	checkFields(t, pkgs, prod, tests)

	var unreached []string
	for name := range decls {
		if !reached[name] {
			unreached = append(unreached, name)
		}
	}
	sort.Strings(unreached)
	for _, name := range unreached {
		d := decls[name]
		t.Errorf("%s (%s) is reached only by tests: delete it, or allowlist it with the reason", name, d.pkg.Fset.Position(d.fn.Pos()))
	}
	if len(reached) < 500 {
		t.Errorf("only %d functions reached from the roots; the walk looks broken", len(reached))
	}
}

// testName matches a test function named in an allowlist reason.
var testName = regexp.MustCompile(`\bTest[A-Z]\w*`)

// testFile is one parsed _test.go file and the directory it is in.
type testFile struct {
	dir  string
	file *ast.File
}

// parseTestFiles parses the _test.go files in dir.
func parseTestFiles(t *testing.T, dir string) []testFile {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []testFile
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, testFile{dir: dir, file: f})
	}
	return out
}

// references reports whether the syntax under n, in tf, names fn of
// pkg. Test files are parsed, not type-checked, so the match is by
// name: a method by any selector of its name; a function by its bare
// name in a file of its own package, or through an import of pkg.
func (tf testFile) references(n ast.Node, pkg *Package, fn *ast.FuncDecl) bool {
	name, method := fn.Name.Name, fn.Recv != nil
	pkgName := pkg.Files[0].Name.Name // from the package clause
	inPkg := tf.dir == pkg.Dir && tf.file.Name.Name == pkgName
	qual := "" // the file's name for pkg, when it imports it
	for _, imp := range tf.file.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == pkg.Path {
			qual = pkgName
			if imp.Name != nil {
				qual = imp.Name.Name
			}
		}
	}
	found := false
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			x, ok := n.X.(*ast.Ident)
			if n.Sel.Name == name && (method || ok && qual != "" && x.Name == qual) {
				found = true
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if !method && inPkg && n.Name == name {
				found = true
			}
		}
		return !found
	}
	ast.Inspect(n, visit)
	return found
}

// reads reports whether the syntax under n, in tf, reads a field named
// name: a selector of that name, not qualified by an import, that is
// not the target of an assignment, ++ or --. Test files are not
// type-checked, so any field of that name matches.
func (tf testFile) reads(n ast.Node, name string) bool {
	imported := map[string]bool{}
	for _, imp := range tf.file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		imported[pathpkg.Base(path)] = true
		if imp.Name != nil {
			imported[imp.Name.Name] = true
		}
	}
	written := map[*ast.SelectorExpr]bool{}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		markTargets(n, written)
		if se, ok := n.(*ast.SelectorExpr); ok && se.Sel.Name == name && !written[se] {
			x, ok := se.X.(*ast.Ident)
			found = !ok || !imported[x.Name]
		}
		return !found
	})
	return found
}

// writes reports whether the syntax under n, in tf, writes a field
// named name: a selector of that name that is the target of an
// assignment, ++ or --, or whose address is taken, or a composite-literal
// key of that name. Test files are not type-checked, so any field of
// that name matches.
func (tf testFile) writes(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		targets := map[*ast.SelectorExpr]bool{}
		markTargets(n, targets)
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if se, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
				targets[se] = true
			}
		case *ast.KeyValueExpr:
			id, ok := n.Key.(*ast.Ident)
			found = found || ok && id.Name == name
		}
		for se := range targets {
			found = found || se.Sel.Name == name
		}
		return !found
	})
	return found
}

// testFunc is a function declared in a test file.
type testFunc struct {
	tf   testFile
	decl *ast.FuncDecl
}

// testCallees returns the functions named name that test files declare
// and, transitively, the functions of their test files' packages that
// they call: a test and the helpers it uses.
func testCallees(tests []testFile, name string) []testFunc {
	var out, queue []testFunc
	enqueue := func(dir, pkg, name string) {
		for _, tf := range tests {
			if dir != "" && (tf.dir != dir || tf.file.Name.Name != pkg) {
				continue
			}
			for _, d := range tf.file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == name {
					queue = append(queue, testFunc{tf, fn})
				}
			}
		}
	}
	enqueue("", "", name)
	seen := map[*ast.FuncDecl]bool{}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if seen[fn.decl] {
			continue
		}
		seen[fn.decl] = true
		out = append(out, fn)
		ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					enqueue(fn.tf.dir, fn.tf.file.Name.Name, id.Name)
				}
			}
			return true
		})
	}
	return out
}

// scoped is a syntax tree and the type information that covers it.
type scoped struct {
	info *types.Info
	n    ast.Node
}

// checkFields fails on any field of a named struct type declared in
// pkgs that no syntax in prod reads or that no syntax in prod writes,
// and on any stale testOnlyFields or testOnlyWrites entry.
//
// A read is a selector that is not the target of an assignment, ++ or
// --, and a selector through an embedded field reads that field. A
// JSON-tagged field counts as read by encoding/json, and every field
// of a struct that is a map key or an operand of == or != counts as
// read by the comparison. JSON-tagged fields are not checked for reads.
//
// A write is the target of an assignment, ++ or --, a composite-literal
// key (a positional literal writes every field), a taken address, a
// pointer-method call on the field, clear or copy on the field, or
// encoding/json decoding into the field's struct. Writing an element
// of a field, or a field of a struct-valued field, writes the field.
func checkFields(t *testing.T, pkgs []*Package, prod []scoped, tests []testFile) {
	t.Helper()
	declared := map[string]token.Position{}
	// Every field is checked for writes; the fields encoding/json does
	// not read are checked for reads.
	checkRead, checkWrite := map[string]bool{}, map[string]bool{}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Name() == "_" {
					continue
				}
				key := fieldKey(named, f)
				declared[key] = pkg.Fset.Position(f.Pos())
				checkWrite[key] = true
				if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); !ok || tag == "-" {
					checkRead[key] = true
				}
			}
		}
	}

	read, written := map[string]bool{}, map[string]bool{}
	for _, s := range prod {
		targets := map[*ast.SelectorExpr]bool{}
		ast.Inspect(s.n, func(n ast.Node) bool {
			markTargets(n, targets)
			markWrites(s.info, n, written)
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := s.info.Selections[n]; ok {
					markFields(read, sel, !targets[n])
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					eachField(s.info.TypeOf(n.X), read)
					eachField(s.info.TypeOf(n.Y), read)
				}
			case *ast.MapType:
				eachField(s.info.TypeOf(n.Key), read)
			}
			return true
		})
	}

	unread := allowFields(t, "read", testOnlyFields, checkRead, read, tests, testFile.reads)
	unwritten := allowFields(t, "write", testOnlyWrites, checkWrite, written, tests, testFile.writes)
	for _, key := range unread {
		t.Errorf("field %s (%s) is read only by tests, or by nothing: delete it, or allowlist it with the tests that read it", key, declared[key])
	}
	for _, key := range unwritten {
		t.Errorf("field %s (%s) is written only by tests, or by nothing: delete it, or allowlist it with the tests that write it", key, declared[key])
	}
	if len(read) < 300 || len(written) < 300 {
		t.Errorf("only %d fields read and %d written on production paths; the scan looks broken", len(read), len(written))
	}
}

// allowFields checks the allowlist of the fields in checked that prod
// does not use (read or write, per kind) and returns, sorted, the
// fields of checked that prod does not use and the list does not
// allow. An entry is stale when prod uses its field or the field is
// gone; its reason must name tests, and each named test must use the
// field, in its body or in a test-file function it calls.
func allowFields(t *testing.T, kind string, list map[string]string, checked, used map[string]bool, tests []testFile, uses func(testFile, ast.Node, string) bool) []string {
	t.Helper()
	allowed := make([]string, 0, len(list))
	for key := range list {
		allowed = append(allowed, key)
	}
	sort.Strings(allowed)
	for _, key := range allowed {
		if !checked[key] || used[key] {
			t.Errorf("field %s allowlist entry %s is stale: production code %ss it, or the field is gone", kind, key, kind)
			continue
		}
		name := key[strings.LastIndex(key, ".")+1:]
		named := testName.FindAllString(list[key], -1)
		if len(named) == 0 {
			t.Errorf("field %s allowlist entry %s: its reason names no test", kind, key)
		}
		for _, test := range named {
			found, does := false, false
			for _, fn := range testCallees(tests, test) {
				found = true
				does = does || uses(fn.tf, fn.decl.Body, name)
			}
			if !found {
				t.Errorf("field %s allowlist entry %s: its reason names %s, which no test file declares", kind, key, test)
			} else if !does {
				t.Errorf("field %s allowlist entry %s: its reason names %s, which does not %s it", kind, key, test, kind)
			}
		}
	}
	var out []string
	for key := range checked {
		if _, ok := list[key]; !used[key] && !ok {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// markTargets adds to written the selectors that n, when it is an
// assignment, ++ or --, assigns to.
func markTargets(n ast.Node, written map[*ast.SelectorExpr]bool) {
	var lhs []ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		lhs = n.Lhs
	case *ast.IncDecStmt:
		lhs = []ast.Expr{n.X}
	}
	for _, e := range lhs {
		if se, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[se] = true
		}
	}
}

// markFields adds to set the fields sel goes through: each embedded
// field on its path and, when last is set and sel selects a field, that
// field. Fields of unnamed structs have no key and are skipped.
func markFields(set map[string]bool, sel *types.Selection, last bool) {
	t := sel.Recv()
	for i, idx := range sel.Index() {
		final := i == len(sel.Index())-1
		if final && sel.Kind() != types.FieldVal {
			return // the method a method selection ends in
		}
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(idx)
		if named, ok := types.Unalias(t).(*types.Named); ok && (last || !final) {
			set[fieldKey(named, f)] = true
		}
		t = f.Type()
	}
}

// markWrites adds to written the fields n writes (see checkFields).
func markWrites(info *types.Info, n ast.Node, written map[string]bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, e := range n.Lhs {
			markWritten(info, e, written)
		}
	case *ast.IncDecStmt:
		markWritten(info, n.X, written)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			markWritten(info, n.X, written)
		}
	case *ast.CompositeLit:
		t := info.TypeOf(n)
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := types.Unalias(t).(*types.Named)
		st, isStruct := t.Underlying().(*types.Struct)
		if !ok || !isStruct {
			return
		}
		for i, e := range n.Elts {
			f := st.Field(i)
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				id, _ := kv.Key.(*ast.Ident)
				if f, ok = info.Uses[id].(*types.Var); !ok {
					continue
				}
			}
			written[fieldKey(named, f)] = true
		}
	case *ast.SelectorExpr:
		// A pointer method called on an addressable value takes its
		// address: the receiver field, and the embedded fields the
		// method is promoted through, are written.
		sel, ok := info.Selections[n]
		if !ok || sel.Kind() != types.MethodVal {
			return
		}
		if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); !ptr {
			return
		}
		markFields(written, sel, false)
		if _, ptr := sel.Recv().Underlying().(*types.Pointer); !ptr {
			markWritten(info, n.X, written)
		}
	case *ast.CallExpr:
		var id *ast.Ident
		switch fun := ast.Unparen(n.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		}
		switch obj := info.Uses[id].(type) {
		case *types.Builtin:
			if obj.Name() == "clear" || obj.Name() == "copy" {
				markWritten(info, n.Args[0], written)
			}
		case *types.Func:
			switch obj.FullName() {
			case "encoding/json.Unmarshal":
				jsonWrites(info.TypeOf(n.Args[1]), written, map[types.Type]bool{})
			case "(*encoding/json.Decoder).Decode":
				jsonWrites(info.TypeOf(n.Args[0]), written, map[types.Type]bool{})
			}
		}
	}
}

// markWritten adds to written the field e denotes, when e is a field
// selector. Writing an element of a field, or a field of a field held
// by value, writes that field too.
func markWritten(info *types.Info, e ast.Expr, written map[string]bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel, ok := info.Selections[x]
			if !ok || sel.Kind() != types.FieldVal {
				return
			}
			markFields(written, sel, true)
			if _, ptr := sel.Recv().Underlying().(*types.Pointer); ptr {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// eachField adds to set every field of t's struct type and of the
// structs and arrays it holds by value.
func eachField(t types.Type, set map[string]bool) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		named, _ := types.Unalias(t).(*types.Named)
		for i := 0; i < u.NumFields(); i++ {
			if named != nil {
				set[fieldKey(named, u.Field(i))] = true
			}
			eachField(u.Field(i).Type(), set)
		}
	case *types.Array:
		eachField(u.Elem(), set)
	}
}

// jsonWrites adds to set every field encoding/json fills when it
// decodes into a value of type t: the exported fields not tagged "-",
// through pointers, slices, arrays, maps and nested structs.
func jsonWrites(t types.Type, set map[string]bool, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		jsonWrites(u.Elem(), set, seen)
	case *types.Slice:
		jsonWrites(u.Elem(), set, seen)
	case *types.Array:
		jsonWrites(u.Elem(), set, seen)
	case *types.Map:
		jsonWrites(u.Elem(), set, seen)
	case *types.Struct:
		named, _ := types.Unalias(t).(*types.Named)
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() || reflect.StructTag(u.Tag(i)).Get("json") == "-" {
				continue
			}
			if named != nil {
				set[fieldKey(named, f)] = true
			}
			jsonWrites(f.Type(), set, seen)
		}
	}
}

// fieldKey names field f of the struct type named, as
// "<package path>.<type>.<field>".
func fieldKey(named *types.Named, f *types.Var) string {
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
}

// recvBase returns the base type of m's receiver, or nil when m is a
// function.
func recvBase(m *types.Func) types.Type {
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if p, ok := recv.Type().(*types.Pointer); ok {
		return p.Elem()
	}
	return recv.Type()
}

// hasMethodNames reports whether *t has a method of every name iface
// declares. Names, not signatures, are compared: a reference resolved
// from export data and a declaration checked from source are distinct
// type objects.
func hasMethodNames(t types.Type, iface *types.Interface) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	have := map[string]bool{}
	for i := 0; i < ms.Len(); i++ {
		have[ms.At(i).Obj().Name()] = true
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if !have[iface.Method(i).Name()] {
			return false
		}
	}
	return true
}
