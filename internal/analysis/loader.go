package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path string
	Dir  string

	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Match      []string
	Error      *struct{ Err string }
}

// LoadPackages loads and type-checks the packages matching patterns,
// rooted at dir (any directory inside the module). It shells out to
// `go list -export -deps`, so imports resolve through the export data
// the compiler produced and the loader needs nothing beyond the
// standard library and the go tool. Each package is checked over its
// GoFiles: the non-test files its build constraints select, which is
// the file set the compiler builds.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Name,Dir,Export,GoFiles,Match,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exportFile := map[string]string{}
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exportFile[lp.ImportPath] = lp.Export
		}
		if len(lp.Match) > 0 {
			p := lp
			targets = append(targets, &p)
		}
	}

	fset := token.NewFileSet()
	imp := newCachedImporter(fset, func(path string) (string, bool) {
		f, ok := exportFile[path]
		return f, ok
	})

	var pkgs []*Package
	for _, lp := range targets {
		if lp.Name == "" || len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := typeCheck(fset, imp, lp.ImportPath, lp.Dir, absFiles(lp.Dir, lp.GoFiles))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		if filepath.IsAbs(n) {
			out[i] = n
		} else {
			out[i] = filepath.Join(dir, n)
		}
	}
	return out
}

// typeCheck parses files and type-checks them as package path, resolving
// imports through imp.
func typeCheck(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", f, err)
		}
		syntax = append(syntax, af)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(path, fset, syntax, info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{
		Path: path, Dir: dir,
		Fset: fset, Files: syntax, Info: info,
	}, nil
}

// newCachedImporter returns a types.Importer that reads gc export data
// through lookup (import path -> export file), memoizing results so one
// load session type-checks shared dependencies once.
func newCachedImporter(fset *token.FileSet, lookup func(path string) (string, bool)) types.Importer {
	base := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := lookup(path)
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return &cachedImporter{base: base, seen: map[string]*types.Package{}}
}

type cachedImporter struct {
	base types.Importer
	seen map[string]*types.Package
}

func (c *cachedImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.seen[path]; ok {
		return p, nil
	}
	p, err := c.base.Import(path)
	if err != nil {
		return nil, err
	}
	c.seen[path] = p
	return p, nil
}
