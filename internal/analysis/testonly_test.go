package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
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
	"repro/internal/linux.New":                         "cold-build constructor of the linux, advisor and root tests; runs lease through Rebuild",
	"(*repro/internal/mem.Allocator).FreeBlocks":       "sorted free-list snapshot TestFreeBlocksDeterministic compares across identical runs",
	"(*repro/internal/mem.Allocator).TotalFreeBytes":   "frame-conservation oracle of the leak tests and the cross-layer audit",
	"(*repro/internal/metrics.EpochLoad).PathLinkUtil": "reference the engine's batched access-cost kernel is checked against",
	"repro/internal/numa.SmallMachine":                 "builds the small topologies of the unit tests",
	"repro/internal/policy.Bind":                       "builds bind:N kinds for the bind tests; runs parse them from policy strings",
	"(*repro/internal/pt.HypervisorTable).Len":         "TestQuickMapInvalidate's count of valid entries",
	"(*repro/internal/xen.Domain).NodeOfPFN":           "placement oracle of the xen tests and the cross-layer audit",
}

// stdCalled names the methods the standard library calls on the
// module's types, through error, fmt.Stringer and types.Importer: a
// method of one of these names counts as reached.
var stdCalled = map[string]bool{"Error": true, "String": true, "Import": true}

// TestNoTestOnlyCode fails on any function or method, in a non-test
// file of the module, that no production code reaches: code that only
// tests call is still code every reader must understand, and often
// state every warm lease must reset.
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
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name == "main") {
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

	tests := parseTestFiles(t, append(pkgs, benchPkgs...))
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

// parseTestFiles parses the _test.go files in the directories of pkgs.
func parseTestFiles(t *testing.T, pkgs []*Package) []testFile {
	t.Helper()
	fset := token.NewFileSet()
	var out []testFile
	for _, pkg := range pkgs {
		names, err := filepath.Glob(filepath.Join(pkg.Dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, testFile{dir: pkg.Dir, file: f})
		}
	}
	return out
}

// references reports whether the syntax under n, in tf, names fn of
// pkg. Test files are parsed, not type-checked, so the match is by
// name: a method by any selector of its name; a function by its bare
// name in a file of its own package, or through an import of pkg.
func (tf testFile) references(n ast.Node, pkg *Package, fn *ast.FuncDecl) bool {
	name, method := fn.Name.Name, fn.Recv != nil
	inPkg := tf.dir == pkg.Dir && tf.file.Name.Name == pkg.Name
	qual := "" // the file's name for pkg, when it imports it
	for _, imp := range tf.file.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == pkg.Path {
			qual = pkg.Name
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
