package analysis

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetEndToEnd exercises the built cmd/xnuma-vet binary: argument
// handling, loading through go list, each analyzer's Scope and the
// exit code. The golden tests cover the analyzers in-process, scope
// free; this covers the driver CI runs.
func TestVetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and vets the whole module")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "xnuma-vet")
	build := exec.Command("go", "build", "-o", tool, "./cmd/xnuma-vet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/xnuma-vet: %v\n%s", err, out)
	}

	vet := func(pattern string) (string, error) {
		cmd := exec.Command(tool, pattern)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	// The merged tree must vet clean — the same invariant CI enforces.
	if out, err := vet("./..."); err != nil {
		t.Errorf("xnuma-vet over the repo reported findings:\n%s", out)
	}

	// A package with known violations must fail with our diagnostics.
	// The detrand golden input is a real compilable package whose path
	// (repro/internal/...) is in the sim-package scope.
	out, err := vet("./internal/analysis/testdata/src/detrand")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("xnuma-vet on the detrand golden input: %v, want exit status 2:\n%s", err, out)
	}
	for _, want := range []string{
		"detrand: import of math/rand",
		"detrand: time.Now in a simulation package",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("xnuma-vet output missing %q:\n%s", want, out)
		}
	}
}
