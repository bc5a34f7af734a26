package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden harness mirrors golang.org/x/tools/go/analysis/analysistest:
// each testdata/src/<analyzer> package annotates the lines that must be
// flagged with `// want "regex" ["regex" ...]` comments; the harness
// runs scope-free copies of the full suite (the testdata paths lie
// outside maporder's scope) and diffs diagnostics against expectations
// both ways. The `// want` marker may ride inside a suppression comment,
// because suppression reasons stop at an embedded `//`.

// expectation is one `// want` pattern, anchored to a file:line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

func loadGolden(t *testing.T, name string) (*Package, RunResult) {
	t.Helper()
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadPackages(root, "./internal/analysis/testdata/src/"+name)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages for %s, want 1", len(pkgs), name)
	}
	var unscoped []*Analyzer
	for _, a := range All() {
		c := *a
		c.Scope = nil
		unscoped = append(unscoped, &c)
	}
	res, err := RunAnalyzers(pkgs[0], unscoped)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs[0], res
}

func checkGolden(t *testing.T, name string) (*Package, RunResult) {
	t.Helper()
	pkg, res := loadGolden(t, name)

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseWants(t, pkg.Fset, c.Pos(), c.Text)...)
			}
		}
	}

	for _, d := range res.Diagnostics {
		pos := pkg.Fset.Position(d.Pos)
		var hit *expectation
		for _, w := range wants {
			if w.matched || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("%s:%d: unexpected diagnostic: %s: %s",
				filepath.Base(pos.Filename), pos.Line, d.Analyzer, d.Message)
			continue
		}
		hit.matched = true
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q",
				filepath.Base(w.file), w.line, w.raw)
		}
	}
	return pkg, res
}

// parseWants extracts the quoted regexes following a `// want ` marker
// inside the comment text.
func parseWants(t *testing.T, fset *token.FileSet, pos token.Pos, text string) []*expectation {
	t.Helper()
	i := strings.Index(text, "// want ")
	if i < 0 {
		return nil
	}
	p := fset.Position(pos)
	rest := strings.TrimSpace(text[i+len("// want "):])
	var out []*expectation
	for rest != "" {
		var raw string
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want pattern: %s", p.Filename, p.Line, rest)
			}
			raw = rest[1 : 1+end]
			rest = strings.TrimSpace(rest[2+end:])
		case '"':
			var err error
			end := strings.IndexByte(rest[1:], '"')
			if end < 0 {
				t.Fatalf("%s:%d: unterminated want pattern: %s", p.Filename, p.Line, rest)
			}
			raw, err = strconv.Unquote(rest[:2+end])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %s: %v", p.Filename, p.Line, rest[:2+end], err)
			}
			rest = strings.TrimSpace(rest[2+end:])
		default:
			t.Fatalf("%s:%d: want patterns must be quoted: %s", p.Filename, p.Line, rest)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			t.Fatalf("%s:%d: bad want regexp %q: %v", p.Filename, p.Line, raw, err)
		}
		out = append(out, &expectation{file: p.Filename, line: p.Line, re: re, raw: raw})
	}
	return out
}

func TestMaporderGolden(t *testing.T) {
	_, res := checkGolden(t, "maporder")
	// Suppression accounting: the two reasoned suppressions silence one
	// finding each; the stale and unknown ones are diagnostics, not
	// suppressions.
	if len(res.Suppressed) != 2 {
		t.Errorf("suppressed = %d, want 2: %s", len(res.Suppressed), fmtDiags(res.Suppressed))
	}
	if len(res.Suppressions) != 3 { // two used + one stale (valid but unused)
		t.Errorf("suppressions = %d, want 3: %+v", len(res.Suppressions), res.Suppressions)
	}
	for _, s := range res.Suppressions {
		if s.Reason == "" {
			t.Errorf("suppression at %s:%d recorded without a reason", s.File, s.Line)
		}
	}
}

func TestDetrandGolden(t *testing.T) {
	_, res := checkGolden(t, "detrand")
	if len(res.Suppressed) != 1 {
		t.Errorf("suppressed = %d, want 1: %s", len(res.Suppressed), fmtDiags(res.Suppressed))
	}
}

func TestNoallocGolden(t *testing.T) {
	_, res := checkGolden(t, "noalloc")
	if len(res.Suppressed) != 1 {
		t.Errorf("suppressed = %d, want 1: %s", len(res.Suppressed), fmtDiags(res.Suppressed))
	}
}

func TestAliasretainGolden(t *testing.T) {
	_, res := checkGolden(t, "aliasretain")
	if len(res.Suppressed) != 1 {
		t.Errorf("suppressed = %d, want 1: %s", len(res.Suppressed), fmtDiags(res.Suppressed))
	}
}

func fmtDiags(ds []Diagnostic) string {
	var parts []string
	for _, d := range ds {
		parts = append(parts, fmt.Sprintf("%s: %s", d.Analyzer, d.Message))
	}
	return strings.Join(parts, "; ")
}

// ModuleRoot walks up from dir to the directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		d = parent
	}
}
