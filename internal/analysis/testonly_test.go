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
// it, fails the test.
var testOnlyFields = map[string]string{
	"repro/internal/analysis.Package.Dir":          "TestNoTestOnlyCode finds each package's test files by it",
	"repro/internal/engine.Runner.convergedEpochs": "TestConvergedFastPathMatchesFullKernel and TestEpochAllocFree count the epochs the fast path served",
	"repro/internal/mem.FreeBlock.Order":           "part of the free-list snapshot TestFreeBlocksDeterministic compares across identical runs",
}

// stdCalled names the methods the standard library calls on the
// module's types, through error, fmt.Stringer and types.Importer: a
// method of one of these names counts as reached.
var stdCalled = map[string]bool{"Error": true, "String": true, "Import": true}

// TestNoTestOnlyCode fails on any function or method, in a non-test
// file of the module, that no production code reaches, and on any
// struct field that no production code reads: code that only tests call
// is still code every reader must understand, and a field only tests
// read is state every writer updates and every warm lease resets.
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
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main") {
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
	inPkg := tf.dir == pkg.Dir && tf.file.Name.Name == pkg.Types.Name()
	qual := "" // the file's name for pkg, when it imports it
	for _, imp := range tf.file.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == pkg.Path {
			qual = pkg.Types.Name()
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

// scoped is a syntax tree and the type information that covers it.
type scoped struct {
	info *types.Info
	n    ast.Node
}

// checkFields fails on any field of a named struct type declared in
// pkgs that no syntax in prod reads, and on any stale testOnlyFields
// entry. A read is a selector that is not the target of an assignment,
// ++ or --, and a selector through an embedded field reads that field.
// A JSON-tagged field counts as read by encoding/json, and every field
// of a struct that is a map key or an operand of == or != counts as
// read by the comparison.
func checkFields(t *testing.T, pkgs []*Package, prod []scoped, tests []testFile) {
	t.Helper()
	declared := map[string]token.Position{}
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
				if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); f.Name() != "_" && (!ok || tag == "-") {
					declared[fieldKey(named, f)] = pkg.Fset.Position(f.Pos())
				}
			}
		}
	}

	read := map[string]bool{}
	var readAll func(types.Type)
	readAll = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			named, _ := types.Unalias(t).(*types.Named)
			for i := 0; i < u.NumFields(); i++ {
				if named != nil {
					read[fieldKey(named, u.Field(i))] = true
				}
				readAll(u.Field(i).Type())
			}
		case *types.Array:
			readAll(u.Elem())
		}
	}
	for _, s := range prod {
		written := map[*ast.SelectorExpr]bool{}
		ast.Inspect(s.n, func(n ast.Node) bool {
			markTargets(n, written)
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := s.info.Selections[n]; ok {
					markRead(read, sel, written[n])
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					readAll(s.info.TypeOf(n.X))
					readAll(s.info.TypeOf(n.Y))
				}
			case *ast.MapType:
				readAll(s.info.TypeOf(n.Key))
			}
			return true
		})
	}

	allowed := make([]string, 0, len(testOnlyFields))
	for key := range testOnlyFields {
		allowed = append(allowed, key)
	}
	sort.Strings(allowed)
	for _, key := range allowed {
		if _, ok := declared[key]; !ok || read[key] {
			t.Errorf("field allowlist entry %s is stale: production code reads it, or it is gone", key)
			continue
		}
		delete(declared, key)
		name := key[strings.LastIndex(key, ".")+1:]
		named := testName.FindAllString(testOnlyFields[key], -1)
		if len(named) == 0 {
			t.Errorf("field allowlist entry %s: its reason names no test that reads it", key)
		}
		for _, test := range named {
			found, reads := false, false
			for _, tf := range tests {
				for _, fd := range tf.file.Decls {
					if fn, ok := fd.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == test {
						found = true
						reads = reads || tf.reads(fn.Body, name)
					}
				}
			}
			if !found {
				t.Errorf("field allowlist entry %s: its reason names %s, which no test file declares", key, test)
			} else if !reads {
				t.Errorf("field allowlist entry %s: its reason names %s, whose body does not read it", key, test)
			}
		}
	}

	var unread []string
	for key := range declared {
		if !read[key] {
			unread = append(unread, key)
		}
	}
	sort.Strings(unread)
	for _, key := range unread {
		t.Errorf("field %s (%s) is read only by tests, or by nothing: delete it, or allowlist it with the tests that read it", key, declared[key])
	}
	if len(read) < 300 {
		t.Errorf("only %d fields read on production paths; the scan looks broken", len(read))
	}
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

// markRead marks read the fields sel goes through: each embedded field
// on its path and, for a field selection that is not assigned to, the
// field itself. Fields of unnamed structs have no key and are skipped.
func markRead(read map[string]bool, sel *types.Selection, assigned bool) {
	t := sel.Recv()
	for i, idx := range sel.Index() {
		last := i == len(sel.Index())-1
		if last && sel.Kind() != types.FieldVal {
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
		if named, ok := types.Unalias(t).(*types.Named); ok && !(last && assigned) {
			read[fieldKey(named, f)] = true
		}
		t = f.Type()
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
