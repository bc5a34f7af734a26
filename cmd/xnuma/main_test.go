package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCLI(t, "list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"fig8", "hcall", "cg.C", "streamcluster"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
	// Sweeps run round-1G with Carrefour stacked, and `xnuma run` boots
	// it, so list must name it.
	if !strings.Contains(out, "\n  round-1g/carrefour\n") {
		t.Errorf("list output missing round-1g/carrefour:\n%s", out)
	}
}

func TestPolicies(t *testing.T) {
	code, out, _ := runCLI(t, "policies")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"round-1G", "first-touch", "interleave", "bind:<arg>", "least-loaded", "R4K", "lazy", "eager"} {
		if !strings.Contains(out, want) {
			t.Errorf("policies output missing %q:\n%s", want, out)
		}
	}
}

func TestRunNewPolicy(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "run", "swaptions", "least-loaded")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "backend:      xen/least-loaded") {
		t.Errorf("run output missing backend line:\n%s", out)
	}
}

// TestRunPolicySpellingsAgree: every spelling of one policy names the
// same cell, whose key seeds its random stream, so run prints the same
// bytes for an alias, a case variant or a padded name.
func TestRunPolicySpellingsAgree(t *testing.T) {
	spellings := []string{"round-4k/carrefour", "r4k/carrefour", "ROUND-4K/carrefour", " round-4k/carrefour"}
	var want string
	for i, pol := range spellings {
		code, out, errb := runCLI(t, "-scale", "256", "run", "psearchy", pol)
		if code != 0 {
			t.Fatalf("%q: exit %d, stderr %q", pol, code, errb)
		}
		if i == 0 {
			want = out
		} else if out != want {
			t.Errorf("run psearchy %q printed\n%s\nwant, as for %q:\n%s", pol, out, spellings[0], want)
		}
	}
}

func TestNoArgsUsage(t *testing.T) {
	code, _, errb := runCLI(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, "usage") {
		t.Errorf("usage not printed: %q", errb)
	}
}

func TestBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag", "list"},
		{"-parallel", "-3", "list"},
	} {
		if code, out, _ := runCLI(t, args...); code != 2 || out != "" {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, out)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, _, errb := runCLI(t, "fig99")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, "unknown experiment") {
		t.Errorf("stderr: %q", errb)
	}
}

func TestCheapExperiment(t *testing.T) {
	code, out, _ := runCLI(t, "table3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "== table3:") {
		t.Errorf("missing table header: %q", out)
	}
}

func TestMarkdownRender(t *testing.T) {
	code, out, _ := runCLI(t, "-md", "table2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "### table2:") {
		t.Errorf("missing markdown header: %q", out)
	}
}

// TestBadScale: a scale the machine cannot be built at is a usage error
// on every command, reported before anything runs — no topology dump,
// no cell, no served request, and no silent fall-back to the default.
func TestBadScale(t *testing.T) {
	for _, scale := range []string{"3", "1024", "-4", "0"} {
		for _, cmd := range [][]string{{"topo"}, {"run", "swaptions", "round-4k"}, {"all"}, {"serve"}} {
			code, out, errb := runCLI(t, append([]string{"-scale", scale}, cmd...)...)
			if code != 2 || out != "" || !strings.Contains(errb, "power of two") {
				t.Errorf("-scale %s %s: exit %d, stdout %q, stderr %q; want exit 2 and a scale error only",
					scale, cmd[0], code, out, errb)
			}
		}
	}
}

func TestTopo(t *testing.T) {
	code, out, _ := runCLI(t, "-scale", "256", "topo")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "hop distance matrix") {
		t.Errorf("missing topology dump: %q", out)
	}
}

// TestRunTiny drives the full CLI path through flag parsing, suite
// construction and one real (small-scale) simulation.
func TestRunTiny(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "-parallel", "2", "run", "swaptions", "round-4k")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"app:          swaptions", "completion:", "locality:"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q:\n%s", want, out)
		}
	}
}

func TestRunUsage(t *testing.T) {
	if code, _, _ := runCLI(t, "run", "swaptions"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunUnknownApp(t *testing.T) {
	code, _, errb := runCLI(t, "run", "nosuch", "round-4k")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, "unknown application") {
		t.Errorf("stderr: %q", errb)
	}
}

func TestRunBadPolicy(t *testing.T) {
	if code, _, _ := runCLI(t, "run", "swaptions", "nosuch-policy"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	// The machine has 8 nodes: bind:9 is a usage error, not a failing cell.
	code, out, errb := runCLI(t, "run", "swaptions", "bind:9")
	if code != 2 || out != "" || !strings.Contains(errb, "out of range") {
		t.Fatalf("bind:9: exit %d, stdout %q, stderr %q; want exit 2 with the range message", code, out, errb)
	}
}

func TestSweepTiny(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "sweep", "swaptions")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	// One row per registered policy, including the new ones.
	for _, want := range []string{"== sweep:", "round-1g", "bind:0", "least-loaded", "adaptive", "best:"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepProgress(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "-progress", "sweep", "swaptions")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "== sweep:") {
		t.Errorf("sweep output missing table:\n%s", out)
	}
	// The live reporter's final summary: run counts, throughput and the
	// warm-machine pool's hit/miss split on stderr (interim ticks only
	// appear when the sweep outlives the 2-second sampling interval).
	if !strings.Contains(errb, "new runs") || !strings.Contains(errb, "cells/sec") {
		t.Errorf("progress summary missing from stderr: %q", errb)
	}
	if !strings.Contains(errb, "hits") || !strings.Contains(errb, "misses") {
		t.Errorf("pool stats missing from progress summary: %q", errb)
	}
	// A single-app policy sweep repeats one machine shape, so the pool
	// must have served at least one warm lease.
	if !regexp.MustCompile(`pool [1-9]\d* hits`).MatchString(errb) {
		t.Errorf("pool reported no hits on a repeated-shape sweep: %q", errb)
	}
}

func TestSweepBindTiny(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "sweep", "-bind", "swaptions")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"== sweep-bind:", "bind:7", "sensitivity:"} {
		if !strings.Contains(out, want) {
			t.Errorf("bind sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepSeedsTiny(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "sweep", "-seeds", "2", "swaptions")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"== sweep-seeds:", "wins/2", "modal best"} {
		if !strings.Contains(out, want) {
			t.Errorf("seed sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepAppsTiny(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "sweep", "-apps", "swaptions,ep.D")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"Policy sweep for swaptions", "Policy sweep for ep.D"} {
		if !strings.Contains(out, want) {
			t.Errorf("multi-app sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepAppsSeedsTiny(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "sweep", "-apps", "swaptions,ep.D", "-seeds", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"stability for swaptions", "stability for ep.D", "wins/2"} {
		if !strings.Contains(out, want) {
			t.Errorf("multi-app seed sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepUsage(t *testing.T) {
	if code, _, _ := runCLI(t, "sweep"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "sweep", "nosuch-app"); code != 2 {
		t.Fatalf("unknown app: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "sweep", "-bind", "-seeds", "3", "swaptions"); code != 2 {
		t.Fatalf("-bind with -seeds: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "sweep", "-apps", "swaptions", "ep.D"); code != 2 {
		t.Fatalf("-apps with positional app: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "sweep", "-bind", "-apps", "swaptions,ep.D"); code != 2 {
		t.Fatalf("-bind with -apps: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "sweep", "-apps", "swaptions,nosuch-app"); code != 2 {
		t.Fatalf("-apps with unknown app: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "sweep", "-apps", ","); code != 2 {
		t.Fatalf("-apps with empty list: exit %d, want 2", code)
	}
	if code, out, _ := runCLI(t, "sweep", "-seeds", "-2", "swaptions"); code != 2 || out != "" {
		t.Fatalf("negative -seeds: exit %d, stdout %q; want exit 2 and no output", code, out)
	}
	if code, out, _ := runCLI(t, "sweep", "-seeds", "65", "swaptions"); code != 2 || out != "" {
		t.Fatalf("-seeds over the cap: exit %d, stdout %q; want exit 2 and no output", code, out)
	}
}

// TestProfileFlags: -cpuprofile/-memprofile must produce non-empty
// pprof files around a real (tiny) run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := dir+"/cpu.pprof", dir+"/heap.pprof"
	code, _, errb := runCLI(t, "-scale", "256",
		"-cpuprofile", cpu, "-memprofile", heap, "run", "swaptions", "round-4k")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, path := range []string{cpu, heap} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestCPUProfileBadPath(t *testing.T) {
	if code, _, _ := runCLI(t, "-cpuprofile", t.TempDir()+"/no/such/dir/p", "table3"); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestAdviseTiny(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "256", "advise", "swaptions")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"== advise:", "swaptions", "advice gap"} {
		if !strings.Contains(out, want) {
			t.Errorf("advise output missing %q:\n%s", want, out)
		}
	}
}

func TestAdviseUnknownApp(t *testing.T) {
	if code, _, _ := runCLI(t, "advise", "nosuch-app"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
