package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/artefacts from the current code")

// artefactCases are the commands whose output TestArtefactsGolden pins:
// every paper artefact (xnuma all) plus the three sweep shapes, the
// advisor and the policy registry, each keyed by its golden file name.
var artefactCases = []struct {
	name string
	args []string
}{
	{"all", []string{"all"}},
	{"sweep-apps", []string{"sweep", "-apps", "swaptions,facesim"}},
	{"sweep-bind", []string{"sweep", "-bind", "facesim"}},
	{"sweep-seeds", []string{"sweep", "-seeds", "2", "-apps", "swaptions,facesim"}},
	{"advise", []string{"advise"}},
	{"policies", []string{"policies"}},
}

// TestArtefactsGolden byte-compares what users see with a committed
// golden: the text of every xnuma artefact at -scale 512 -seed 1, at one
// worker and at four. A change that shifts every table the same way
// fails here even though worker-count determinism still holds. After an
// intended model change, regenerate with
//
//	go test ./cmd/xnuma -run TestArtefactsGolden -update
//
// and commit the new files on their own.
func TestArtefactsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every artefact; run without -short")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; CI runs it in the plain determinism step")
	}
	dir := filepath.Join("testdata", "artefacts")
	for _, workers := range []int{1, 4} {
		for _, c := range artefactCases {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				argv := append([]string{"-scale", "512", "-seed", "1", "-parallel", fmt.Sprint(workers)}, c.args...)
				code, out, errb := runCLI(t, argv...)
				if code != 0 {
					t.Fatalf("xnuma %s: exit %d, stderr %q", strings.Join(argv, " "), code, errb)
				}
				path := filepath.Join(dir, c.name+".txt")
				if *update && workers == 1 {
					if err := os.MkdirAll(dir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (generate with -update)", err)
				}
				if out != string(want) {
					t.Errorf("xnuma %s differs from %s: %s", strings.Join(argv, " "), path, firstDiff(string(want), out))
				}
			})
		}
	}
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(gl), len(wl))
}
