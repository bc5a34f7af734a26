package analysis

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// VetMain is the entry point of cmd/xnuma-vet: `xnuma-vet [packages]`,
// with ./... as the default pattern. It loads the packages through go
// list (loader.go) and runs All() over each, honoring every analyzer's
// Scope. It never returns: the exit code is 0 when clean, 2 on findings
// or a usage error, and 1 when the packages fail to load.
func VetMain() {
	var patterns []string
	for _, a := range os.Args[1:] {
		switch {
		case a == "-h" || a == "-help" || a == "--help":
			usage(os.Stdout)
			os.Exit(0)
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(os.Stderr, "xnuma-vet: unknown flag %s\n", a)
			usage(os.Stderr)
			os.Exit(2)
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(vet(patterns))
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: xnuma-vet [packages]\n\n")
	fmt.Fprintf(w, "Invariant analyzers for the xnuma repo:\n\n")
	for _, a := range All() {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
}

// vet loads patterns via go list and reports findings. Returns the
// process exit code.
func vet(patterns []string) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xnuma-vet:", err)
		return 1
	}
	pkgs, err := LoadPackages(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xnuma-vet:", err)
		return 1
	}
	exit := 0
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(pkg, All())
		if err != nil {
			fmt.Fprintf(os.Stderr, "xnuma-vet: %s: %v\n", pkg.Path, err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			exit = 2
		}
	}
	return exit
}
