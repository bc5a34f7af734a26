package xennuma

import (
	"strings"
	"testing"

	"repro/internal/policy"
)

// fastOpts keeps integration tests quick: a heavily scaled machine and a
// small application.
func fastOpts() Options {
	return Options{Scale: 256, XenPlus: true}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in        string
		static    policy.Kind
		carrefour bool
	}{
		{"round-1g", policy.Round1G, false},
		{"R4K", policy.Round4K, false},
		{"first-touch", policy.FirstTouch, false},
		{"ft", policy.FirstTouch, false},
		{"round-4k/carrefour", policy.Round4K, true},
		{"first-touch/carrefour", policy.FirstTouch, true},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", c.in, err)
		}
		if got.Static != c.static || got.Carrefour != c.carrefour {
			t.Errorf("ParsePolicy(%q) = %v", c.in, got)
		}
	}
	if _, err := ParsePolicy("numa-magic"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestParsePolicyRoundTrip: for every policy in the registry
// (parameterized kinds instantiated with their default argument) and
// every legal Carrefour suffix, ParsePolicy(cfg.String()) == cfg.
func TestParsePolicyRoundTrip(t *testing.T) {
	for _, d := range policy.List() {
		name := d.Name
		if d.Parameterized {
			name += ":" + d.DefaultArg
		}
		variants := []string{name}
		if d.Carrefour {
			variants = append(variants, name+"/carrefour")
		}
		for _, v := range variants {
			cfg, err := ParsePolicy(v)
			if err != nil {
				t.Fatalf("ParsePolicy(%q): %v", v, err)
			}
			again, err := ParsePolicy(cfg.String())
			if err != nil {
				t.Fatalf("ParsePolicy(%q): %v", cfg.String(), err)
			}
			if again != cfg {
				t.Errorf("round trip broke: %q → %+v → %q → %+v", v, cfg, cfg.String(), again)
			}
		}
	}
}

// TestRegisteredPoliciesEndToEnd proves the registry is open: the three
// policies added on top of the paper's set complete under both the Xen
// stack and the native baseline without any layer special-casing them.
func TestRegisteredPoliciesEndToEnd(t *testing.T) {
	for _, pol := range []string{"interleave", "bind:3", "least-loaded"} {
		p := MustPolicy(pol)
		x, err := RunXen("swaptions", p, fastOpts())
		if err != nil {
			t.Fatalf("RunXen(%s): %v", pol, err)
		}
		if x.Completion <= 0 || x.TimedOut {
			t.Fatalf("RunXen(%s): bad result %+v", pol, x)
		}
		l, err := RunLinux("swaptions", p, Options{Scale: 256})
		if err != nil {
			t.Fatalf("RunLinux(%s): %v", pol, err)
		}
		if l.Completion <= 0 || l.TimedOut {
			t.Fatalf("RunLinux(%s): bad result %+v", pol, l)
		}
	}
}

func TestMustPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPolicy did not panic")
		}
	}()
	MustPolicy("bogus")
}

func TestApps(t *testing.T) {
	if len(Apps()) != 29 {
		t.Fatalf("Apps() = %d, want 29", len(Apps()))
	}
}

func TestRunXenBasic(t *testing.T) {
	r, err := RunXen("swaptions", MustPolicy("round-4k"), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Completion <= 0 || r.TimedOut {
		t.Fatalf("bad result: %+v", r)
	}
	if r.Backend != "xen/round-4K" {
		t.Fatalf("backend = %q", r.Backend)
	}
}

func TestRunXenUnknownApp(t *testing.T) {
	if _, err := RunXen("doom", MustPolicy("round-4k"), fastOpts()); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRunXenDeterminism(t *testing.T) {
	a, err := RunXen("bodytrack", MustPolicy("first-touch/carrefour"), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunXen("bodytrack", MustPolicy("first-touch/carrefour"), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Completion != b.Completion || a.Imbalance != b.Imbalance {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", a.Completion, a.Imbalance, b.Completion, b.Imbalance)
	}
}

func TestRunXenSeedChangesCarrefourRuns(t *testing.T) {
	o1, o2 := fastOpts(), fastOpts()
	o1.Seed, o2.Seed = 1, 2
	// Burst-driven Carrefour behaviour depends on the seed; completions
	// may or may not differ, but both runs must succeed.
	if _, err := RunXen("fluidanimate", MustPolicy("first-touch/carrefour"), o1); err != nil {
		t.Fatal(err)
	}
	if _, err := RunXen("fluidanimate", MustPolicy("first-touch/carrefour"), o2); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyOrderingCgC is the paper's headline anchor (§5.4.1, Figure
// 7): for cg.C, first-touch beats round-4K, which beats round-1G, by a
// large factor end to end.
func TestPolicyOrderingCgC(t *testing.T) {
	o := Options{Scale: 64, XenPlus: true}
	ft, err := RunXen("cg.C", MustPolicy("first-touch"), o)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunXen("cg.C", MustPolicy("round-4k"), o)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunXen("cg.C", MustPolicy("round-1g"), o)
	if err != nil {
		t.Fatal(err)
	}
	if !(ft.Completion < r4.Completion && r4.Completion < r1.Completion) {
		t.Fatalf("ordering wrong: ft %v, r4k %v, r1g %v", ft.Completion, r4.Completion, r1.Completion)
	}
	if speedup := float64(r1.Completion) / float64(ft.Completion); speedup < 3 {
		t.Fatalf("cg.C best-policy speedup = %.2fx, paper reports ~6x; want ≥ 3x", speedup)
	}
}

// TestFirstTouchHurtsDiskApps checks the §4.4.1 consequence end to end:
// selecting first-touch disables the PCI passthrough driver, so
// disk-intensive applications regress.
func TestFirstTouchHurtsDiskApps(t *testing.T) {
	o := Options{Scale: 128, XenPlus: true}
	r4, err := RunXen("bfs", MustPolicy("round-4k"), o)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := RunXen("bfs", MustPolicy("first-touch"), o)
	if err != nil {
		t.Fatal(err)
	}
	if float64(ft.Completion) < 1.5*float64(r4.Completion) {
		t.Fatalf("first-touch (%v) did not regress the disk app vs round-4K (%v)",
			ft.Completion, r4.Completion)
	}
}

func TestRunLinuxBasic(t *testing.T) {
	r, err := RunLinux("swaptions", MustPolicy("first-touch"), Options{Scale: 256})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completion <= 0 {
		t.Fatal("no completion")
	}
}

func TestRunLinuxRejectsRound1G(t *testing.T) {
	if _, err := RunLinux("swaptions", MustPolicy("round-1g"), Options{Scale: 256}); err == nil {
		t.Fatal("Linux round-1G accepted")
	}
}

func TestRunXenPairColocated(t *testing.T) {
	a, b, err := RunXenPair("swaptions", MustPolicy("round-4k"), "bodytrack", MustPolicy("round-4k"),
		Colocated, false, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Completion <= 0 || b.Completion <= 0 {
		t.Fatal("pair run incomplete")
	}
}

func TestRunXenPairConsolidatedSlower(t *testing.T) {
	o := fastOpts()
	solo, err := RunXen("bodytrack", MustPolicy("round-4k"), o)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := RunXenPair("bodytrack", MustPolicy("round-4k"), "bodytrack", MustPolicy("round-4k"),
		Consolidated, false, o)
	if err != nil {
		t.Fatal(err)
	}
	if float64(a.Completion) < 1.4*float64(solo.Completion) {
		t.Fatalf("consolidation too cheap: %v vs solo %v", a.Completion, solo.Completion)
	}
}

func TestOptionsNormalization(t *testing.T) {
	o, err := Options{}.normalized()
	if err != nil || o.Scale != 64 || o.Seed != 1 || o.Threads != 48 || o.Queue.Queues != 4 {
		t.Fatalf("defaults wrong: %+v, %v", o, err)
	}
}

// TestBadScaleReturnsError: every entry point rejects a scale the
// machine cannot be built at — not a power of two, too large, negative
// — with an error before it builds anything, on both platforms.
func TestBadScaleReturnsError(t *testing.T) {
	pol := MustPolicy("round-4k")
	for _, scale := range []int{3, 1024, -4} {
		o := Options{Scale: scale}
		if _, err := RunXen("swaptions", pol, o); err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Errorf("RunXen at scale %d: err = %v, want a scale error", scale, err)
		}
		if _, err := RunLinux("swaptions", pol, o); err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Errorf("RunLinux at scale %d: err = %v, want a scale error", scale, err)
		}
		if _, _, err := RunXenPair("swaptions", pol, "swaptions", pol, Colocated, false, o); err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Errorf("RunXenPair at scale %d: err = %v, want a scale error", scale, err)
		}
	}
	for _, scale := range []int{1, 2, 512} {
		if err := CheckScale(scale); err != nil {
			t.Errorf("CheckScale(%d) = %v", scale, err)
		}
	}
}
