package analysis

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// VetMain is the entry point of cmd/xnuma-vet: `xnuma-vet
// [-suppressions] [packages]`, with ./... as the default pattern. It
// loads the packages through go list (loader.go) and runs All() over
// each, honoring every analyzer's Scope. It never returns: the exit
// code is 0 when clean, 2 on findings or a usage error, and 1 when the
// packages fail to load.
func VetMain() {
	suppressions := false
	var patterns []string
	for _, a := range os.Args[1:] {
		switch a {
		case "-suppressions", "--suppressions":
			suppressions = true
		case "-h", "-help", "--help":
			usage(os.Stdout)
			os.Exit(0)
		default:
			if strings.HasPrefix(a, "-") {
				fmt.Fprintf(os.Stderr, "xnuma-vet: unknown flag %s\n", a)
				usage(os.Stderr)
				os.Exit(2)
			}
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(vet(patterns, suppressions))
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: xnuma-vet [-suppressions] [packages]\n\n")
	fmt.Fprintf(w, "Invariant analyzers for the xnuma repo:\n\n")
	for _, a := range All() {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, "\nSuppress a finding with a trailing `//xnuma:<analyzer>-ok <reason>`\n")
	fmt.Fprintf(w, "comment (or one alone on the line above). The reason is mandatory;\n")
	fmt.Fprintf(w, "unused suppressions are themselves findings. -suppressions prints the\n")
	fmt.Fprintf(w, "inventory of active suppressions instead of checking.\n")
}

// vet loads patterns via go list and reports findings, or the
// suppression inventory. Returns the process exit code.
func vet(patterns []string, suppressions bool) int {
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
	suppressed := 0
	perAnalyzer := map[string]int{}
	var inventory []string
	for _, pkg := range pkgs {
		res, err := RunAnalyzers(pkg, All())
		if err != nil {
			fmt.Fprintf(os.Stderr, "xnuma-vet: %s: %v\n", pkg.Path, err)
			return 1
		}
		if !suppressions {
			for _, d := range res.Diagnostics {
				fmt.Fprintf(os.Stderr, "%s: %s: %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
				exit = 2
			}
			continue
		}
		suppressed += len(res.Suppressed)
		for _, s := range res.Suppressions {
			perAnalyzer[s.Analyzer]++
			inventory = append(inventory, fmt.Sprintf("%s:%d: //xnuma:%s-ok (%s)", s.File, s.Line, s.Analyzer, s.Reason))
		}
	}
	if suppressions {
		sort.Strings(inventory)
		for _, l := range inventory {
			fmt.Println(l)
		}
		var names []string
		for n := range perAnalyzer {
			names = append(names, n)
		}
		sort.Strings(names)
		var parts []string
		for _, n := range names {
			parts = append(parts, fmt.Sprintf("%s=%d", n, perAnalyzer[n]))
		}
		fmt.Printf("%d suppressions (%s) silencing %d findings\n",
			len(inventory), strings.Join(parts, ", "), suppressed)
	}
	return exit
}
