package xennuma

import "testing"

// TestTLBExtensionEndToEnd: enabling the translation model slows a
// big-working-set application down, and large pages win most of it back
// (the paper's §7 projection).
func TestTLBExtensionEndToEnd(t *testing.T) {
	base := Options{Scale: 64, XenPlus: true}
	off, err := RunXen("mg.D", MustPolicy("first-touch"), base)
	if err != nil {
		t.Fatal(err)
	}
	withTLB := base
	withTLB.TLB = true
	small, err := RunXen("mg.D", MustPolicy("first-touch"), withTLB)
	if err != nil {
		t.Fatal(err)
	}
	if small.Completion <= off.Completion {
		t.Fatalf("TLB model free: %v vs %v", small.Completion, off.Completion)
	}
	withTLB.LargePages = true
	large, err := RunXen("mg.D", MustPolicy("first-touch"), withTLB)
	if err != nil {
		t.Fatal(err)
	}
	if large.Completion >= small.Completion {
		t.Fatalf("large pages did not help: %v vs %v", large.Completion, small.Completion)
	}
	// A small-footprint application is unaffected by any of it.
	s1, _ := RunXen("swaptions", MustPolicy("round-4k"), base)
	s2, _ := RunXen("swaptions", MustPolicy("round-4k"), withTLB)
	if s1.Completion != s2.Completion {
		t.Fatalf("TLB model affected an in-reach working set: %v vs %v", s1.Completion, s2.Completion)
	}
}

// TestReplicationExtensionEndToEnd: the replication variant, the
// heuristic the paper's port leaves out, helps a read-mostly hot-page
// application over the paper's Carrefour.
func TestReplicationExtensionEndToEnd(t *testing.T) {
	base := Options{Scale: 128, XenPlus: true}
	off, err := RunXen("streamcluster", MustPolicy("round-4k/carrefour"), base)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunXen("streamcluster", MustPolicy("round-4k/carrefour:replication"), base)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completion > off.Completion {
		t.Fatalf("replication hurt a read-mostly hot set: %v vs %v", rep.Completion, off.Completion)
	}
}

// TestPairSwapSymmetry: colocated runs with swapped node halves must
// both complete, and the node assignment must actually change which
// half hosts which application (observable through the disk node's
// proximity for an I/O-free app the effect is small, so just check both
// runs work and give plausible, positive times).
func TestPairSwapSymmetry(t *testing.T) {
	o := Options{Scale: 128, XenPlus: true}
	a1, b1, err := RunXenPair("bodytrack", MustPolicy("round-4k"), "swaptions", MustPolicy("round-4k"),
		Colocated, false, o)
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := RunXenPair("bodytrack", MustPolicy("round-4k"), "swaptions", MustPolicy("round-4k"),
		Colocated, true, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Result{a1, b1, a2, b2} {
		if r.Completion <= 0 || r.TimedOut {
			t.Fatalf("bad pair result: %+v", r)
		}
	}
}

// TestMCSMitigationEndToEnd reproduces §5.3.2: Xen+ improves facesim and
// streamcluster substantially through the lock replacement alone.
func TestMCSMitigationEndToEnd(t *testing.T) {
	for _, app := range []string{"facesim", "streamcluster"} {
		off, err := RunXen(app, MustPolicy("round-4k"), Options{Scale: 128})
		if err != nil {
			t.Fatal(err)
		}
		on, err := RunXen(app, MustPolicy("round-4k"), Options{Scale: 128, XenPlus: true})
		if err != nil {
			t.Fatal(err)
		}
		gain := float64(off.Completion)/float64(on.Completion) - 1
		if gain < 0.10 {
			t.Fatalf("%s: MCS gain = %.2f, want ≥ 0.10 (paper: 30-55%%)", app, gain)
		}
	}
}

// TestChurnVisibleUnderFirstTouch reproduces the §4.2.3 concern end to
// end: the Streamflow churner (wrmem) pays a visible but small cost for
// the notification path only when first-touch is active.
func TestChurnVisibleUnderFirstTouch(t *testing.T) {
	o := Options{Scale: 128, XenPlus: true}
	r4, err := RunXen("wrmem", MustPolicy("round-4k"), o)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := RunXen("wrmem", MustPolicy("first-touch"), o)
	if err != nil {
		t.Fatal(err)
	}
	// With batching the overhead must be bounded: first-touch may lose
	// on placement but not collapse.
	if float64(ft.Completion) > 2*float64(r4.Completion) {
		t.Fatalf("batched notification path collapsed wrmem: %v vs %v", ft.Completion, r4.Completion)
	}
}
