package linux

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/iosim"
	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
)

// placement returns the share of r's pages on each of nNodes nodes,
// read page by page through NodeOf.
func placement(r *engine.Region, nNodes int) []float64 {
	d := make([]float64, nNodes)
	for i := 0; i < r.Len(); i++ {
		d[r.NodeOf(i)]++
	}
	for n := range d {
		d[n] /= float64(r.Len())
	}
	return d
}

func TestRound1GRejected(t *testing.T) {
	if _, err := Rebuild(nil, numa.AMD48Scaled(1), policy.Config{Static: policy.Round1G}); err == nil {
		t.Fatal("Linux accepted round-1G")
	}
}

// TestUnsupportedConfigsFailAtConstruction: bad policies surface from
// New, not from the first Place mid-run.
func TestUnsupportedConfigsFailAtConstruction(t *testing.T) {
	topo := numa.SmallMachine(4, 2, 64<<20)
	for _, kind := range []policy.Kind{"nosuch", "bind:9", "bind:x", ""} {
		if _, err := Rebuild(nil, topo, policy.Config{Static: kind}); err == nil {
			t.Errorf("New accepted %q", kind)
		}
	}
	if _, err := Rebuild(nil, topo, policy.Config{Static: policy.Kind("bind:1"), Carrefour: true}); err == nil {
		t.Error("New stacked carrefour on bind")
	}
}

func TestInterleaveSpreads(t *testing.T) {
	topo := numa.SmallMachine(4, 2, 64<<20)
	b, err := Rebuild(nil, topo, policy.Config{Static: policy.Interleave})
	if err != nil {
		t.Fatal(err)
	}
	r := engine.NewRegion("r", 0, 4)
	if _, err := b.Place(r, 400, 0); err != nil {
		t.Fatal(err)
	}
	for n, share := range placement(r, 4) {
		if share != 0.25 {
			t.Fatalf("node %d share = %v, want exactly 0.25", n, share)
		}
	}
}

func TestBindPlacesOnBoundNode(t *testing.T) {
	topo := numa.SmallMachine(4, 2, 64<<20)
	b, err := Rebuild(nil, topo, policy.Config{Static: policy.Kind("bind:2")})
	if err != nil {
		t.Fatal(err)
	}
	r := engine.NewRegion("r", 0, 4)
	if _, err := b.Place(r, 100, 0); err != nil { // toucher ignored
		t.Fatal(err)
	}
	if d := placement(r, 4); d[2] != 1 {
		t.Fatalf("bind:2 distribution = %v, want all on node 2", d)
	}
}

// TestBindFallsBackWhenFull: the preferred node fills and the overflow
// lands elsewhere instead of failing (preferred-node semantics).
func TestBindFallsBackWhenFull(t *testing.T) {
	topo := numa.SmallMachine(2, 1, 1<<20) // 256 frames per node
	b, err := Rebuild(nil, topo, policy.Config{Static: policy.Kind("bind:0")})
	if err != nil {
		t.Fatal(err)
	}
	r := engine.NewRegion("r", 0, 2)
	if _, err := b.Place(r, 400, 1); err != nil {
		t.Fatal(err)
	}
	d := placement(r, 2)
	if d[0] < 0.5 || d[1] == 0 {
		t.Fatalf("bind fallback distribution wrong: %v", d)
	}
}

// TestLeastLoadedBalancesFreeMemory: after skewing node 0 with a
// dedicated fill, least-loaded pours new pages into the other nodes
// first.
func TestLeastLoadedBalancesFreeMemory(t *testing.T) {
	topo := numa.SmallMachine(4, 2, 1<<20)
	b, err := Rebuild(nil, topo, policy.Config{Static: policy.LeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	skew := engine.NewRegion("skew", 0, 4)
	for i := 0; i < 64; i++ {
		mfn, err := b.Alloc.Alloc(0, mem.Order4K)
		if err != nil {
			t.Fatal(err)
		}
		skew.AddPage(mem.PFN(mfn), 0)
	}
	r := engine.NewRegion("r", 0, 4)
	if _, err := b.Place(r, 96, 0); err != nil {
		t.Fatal(err)
	}
	d := placement(r, 4)
	if d[0] != 0 {
		t.Fatalf("least-loaded used the fullest node: %v", d)
	}
	for n := 1; n < 4; n++ {
		if d[n] == 0 {
			t.Fatalf("least-loaded left node %d empty: %v", n, d)
		}
	}
}

func TestFirstTouchPlacesOnToucher(t *testing.T) {
	topo := numa.SmallMachine(4, 2, 64<<20)
	b, err := Rebuild(nil, topo, policy.Config{Static: policy.FirstTouch})
	if err != nil {
		t.Fatal(err)
	}
	r := engine.NewRegion("r", 0, 4)
	if _, err := b.Place(r, 100, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		if r.NodeOf(i) != 2 {
			t.Fatalf("page %d on node %d, want 2", i, r.NodeOf(i))
		}
	}
}

func TestRound4KSpreads(t *testing.T) {
	topo := numa.SmallMachine(4, 2, 64<<20)
	b, _ := Rebuild(nil, topo, policy.Config{Static: policy.Round4K})
	r := engine.NewRegion("r", 0, 4)
	if _, err := b.Place(r, 400, 0); err != nil {
		t.Fatal(err)
	}
	for n, share := range placement(r, 4) {
		if share < 0.24 || share > 0.26 {
			t.Fatalf("node %d share = %v, want 0.25", n, share)
		}
	}
}

func TestMigrateMovesFrame(t *testing.T) {
	topo := numa.SmallMachine(4, 2, 64<<20)
	b, _ := Rebuild(nil, topo, policy.Config{Static: policy.FirstTouch})
	r := engine.NewRegion("r", 0, 4)
	b.Place(r, 1, 0)
	old := mem.MFN(r.Page(0))
	if !b.Migrate(r, 0, 3) {
		t.Fatal("migration refused")
	}
	if r.NodeOf(0) != 3 {
		t.Fatal("region placement not updated")
	}
	if b.Alloc.NodeOf(mem.MFN(r.Page(0))) != 3 {
		t.Fatal("frame not on target node")
	}
	if mem.MFN(r.Page(0)) == old {
		t.Fatal("page kept its old frame")
	}
	if b.Migrate(r, 0, 3) {
		t.Fatal("same-node migration reported success")
	}
}

// TestMigrateInvalidatesCachedDist: a migration through the backend
// shows in the region's placement.
func TestMigrateInvalidatesCachedDist(t *testing.T) {
	topo := numa.SmallMachine(4, 2, 64<<20)
	b, _ := Rebuild(nil, topo, policy.Config{Static: policy.FirstTouch})
	r := engine.NewRegion("r", 0, 4)
	b.Place(r, 10, 0)
	if !b.Migrate(r, 0, 3) {
		t.Fatal("migration refused")
	}
	if d := placement(r, 4); d[0] != 0.9 || d[3] != 0.1 {
		t.Fatalf("placement after backend migration = %v", d)
	}
}

func TestFallbackWhenNodeFull(t *testing.T) {
	topo := numa.SmallMachine(2, 1, 1<<20) // 256 frames per node
	b, _ := Rebuild(nil, topo, policy.Config{Static: policy.FirstTouch})
	r := engine.NewRegion("r", 0, 2)
	// Ask for more than node 0 holds: the overflow must land on node 1
	// rather than failing (§3.1).
	if _, err := b.Place(r, 400, 0); err != nil {
		t.Fatal(err)
	}
	d := placement(r, 2)
	if d[0] < 0.5 || d[1] == 0 {
		t.Fatalf("fallback distribution wrong: %v", d)
	}
}

func TestPlatformCharacteristics(t *testing.T) {
	topo := numa.AMD48Scaled(1)
	b, _ := Rebuild(nil, topo, policy.Config{Static: policy.FirstTouch})
	if b.Virtualized() {
		t.Fatal("native backend claims virtualization")
	}
	path, placement := b.IO()
	if path != iosim.PathNative || placement != iosim.BufferSingleNode {
		t.Fatal("native I/O path wrong")
	}
	if b.ChurnOverhead(66667, 48) != 0 {
		t.Fatal("native churn overhead nonzero")
	}
	if b.CPUShare(0) != 1 {
		t.Fatal("native CPU share != 1")
	}
	if len(b.HomeNodes()) != 8 {
		t.Fatal("native home nodes wrong")
	}
	// Thread pinning walks CPUs in machine order.
	if b.ThreadNode(0) != 0 || b.ThreadNode(6) != 1 || b.ThreadNode(47) != 7 {
		t.Fatal("thread pinning wrong")
	}
}
