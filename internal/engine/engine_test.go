package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/carrefour"
	"repro/internal/iosim"
	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stubBackend is a minimal in-memory Backend for engine unit tests: it
// places pages where a simple policy says and tracks no real frames.
type stubBackend struct {
	topo     *numa.Topology
	spread   bool // round-robin instead of on-toucher
	nextMFN  mem.PFN
	rr       int
	share    float64
	migrated int
}

func newStub(topo *numa.Topology, spread bool) *stubBackend {
	return &stubBackend{topo: topo, spread: spread, share: 1}
}

func (b *stubBackend) Name() string { return "stub" }

func (b *stubBackend) Place(r *Region, n int, toucher numa.NodeID) (sim.Time, error) {
	for i := 0; i < n; i++ {
		node := toucher
		if b.spread {
			node = numa.NodeID(b.rr % b.topo.NumNodes())
			b.rr++
		}
		r.AddPage(b.nextMFN, node)
		b.nextMFN++
	}
	return sim.Time(n) * sim.Microsecond, nil
}

func (b *stubBackend) Migrate(r *Region, i int, to numa.NodeID) bool {
	if r.NodeOf(i) == to {
		return false
	}
	r.SetNode(i, to)
	b.migrated++
	return true
}

func (b *stubBackend) ChurnOverhead(float64, int) float64 { return 0 }
func (b *stubBackend) IO() (iosim.Path, iosim.BufferPlacement) {
	return iosim.PathNative, iosim.BufferScattered
}
func (b *stubBackend) Virtualized() bool { return false }
func (b *stubBackend) ThreadNode(i int) numa.NodeID {
	return b.topo.NodeOf(numa.CPUID(i % b.topo.NumCPUs()))
}
func (b *stubBackend) CPUShare(int) float64 { return b.share }
func (b *stubBackend) HomeNodes() []numa.NodeID {
	out := make([]numa.NodeID, b.topo.NumNodes())
	for i := range out {
		out[i] = numa.NodeID(i)
	}
	return out
}

func testProfile() workload.Profile {
	p, err := workload.Get("cg.C")
	if err != nil {
		panic(err)
	}
	p.BaselineSeconds = 0.3 // keep unit tests fast
	return p
}

func testConfig(topo *numa.Topology) Config {
	cfg := DefaultConfig(topo, 64)
	cfg.MaxTime = 30 * sim.Second
	return cfg
}

func TestRegionHistogramInvariant(t *testing.T) {
	r := NewRegion("r", 0, 4)
	r.AddPage(0, 1)
	r.AddPage(1, 1)
	r.AddPage(2, 3)
	r.AddPage(3, 3)
	d := r.Dist()
	if d[1] != 0.5 || d[3] != 0.5 {
		t.Fatalf("dist = %v", d)
	}
	r.SetNode(0, 2)
	d = r.Dist()
	if d[1] != 0.25 || d[2] != 0.25 || d[3] != 0.5 {
		t.Fatalf("dist after move = %v", d)
	}
	sum := 0.0
	for _, x := range d {
		sum += x
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("dist sums to %v", sum)
	}
}

func TestRegionAccessHead(t *testing.T) {
	r := NewRegion("r", -1, 4)
	r.SetAccessHead(2)
	r.AddPage(0, 0)
	r.AddPage(1, 0)
	r.AddPage(2, 3)
	r.AddPage(3, 3)
	// Accesses concentrate on the first two pages (node 0).
	ad := r.AccessDist()
	if ad[0] != 1 || ad[3] != 0 {
		t.Fatalf("access dist = %v", ad)
	}
	// Migrating a head page updates the head histogram.
	r.SetNode(0, 2)
	ad = r.AccessDist()
	if ad[0] != 0.5 || ad[2] != 0.5 {
		t.Fatalf("access dist after head move = %v", ad)
	}
	// Migrating a tail page does not.
	r.SetNode(3, 1)
	if got := r.AccessDist(); got[1] != 0 {
		t.Fatalf("tail move leaked into access dist: %v", got)
	}
}

func TestRegionDistCachingInvalidation(t *testing.T) {
	r := NewRegion("r", -1, 4)
	r.AddPage(0, 1)
	d1 := r.Dist()
	if d1[1] != 1 {
		t.Fatalf("dist = %v", d1)
	}
	// A clean region hands out its cache, not a fresh slice.
	if d2 := r.Dist(); &d1[0] != &d2[0] {
		t.Fatal("Dist reallocated without a placement mutation")
	}
	// Every mutator invalidates.
	r.AddPage(1, 2)
	if d := r.Dist(); d[1] != 0.5 || d[2] != 0.5 {
		t.Fatalf("stale dist after AddPage: %v", d)
	}
	r.SetNode(0, 3)
	if d := r.Dist(); d[1] != 0 || d[3] != 0.5 {
		t.Fatalf("stale dist after SetNode: %v", d)
	}
	r.SetAccessHead(1)
	if ad := r.AccessDist(); ad[3] != 1 {
		t.Fatalf("stale access dist after SetAccessHead: %v", ad)
	}
	hot := NewRegion("hot", -1, 4)
	hot.AddPage(0, 2)
	if hd := hot.HotDist(); hd[2] != 1 {
		t.Fatalf("hot dist = %v", hd)
	}
	hot.SetNode(0, 1)
	if hd := hot.HotDist(); hd[1] != 1 || hd[2] != 0 {
		t.Fatalf("stale hot dist after SetNode: %v", hd)
	}
	gen := hot.gen
	hot.Replicate()
	if !hot.Replicated || hot.gen == gen {
		t.Fatal("Replicate did not mark the region and its caches")
	}
	gen = hot.gen
	if hot.Replicate(); hot.gen != gen {
		t.Fatal("replicating a replicated region invalidated its caches")
	}
}

// TestFoldRowsMatchesStreams: the per-thread node rows the fixed-point
// loop consumes must equal a fold recomputed from the regions: the hot
// page (or, once replicated, the thread's own node), the master region,
// the thread's own private region and distributed slice, and the
// cross-slice share spread over the combined placement of all slices.
// Forty-eight threads spread over every node, so a fold that ignores
// replication, swaps the two distributed weights or reads another
// thread's region lands on the wrong nodes. The backing buffer must be
// reused.
func TestFoldRowsMatchesStreams(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	in := &Instance{Prof: testProfile(), Backend: newStub(topo, true), NThreads: 48}
	r := &Runner{}
	if err := r.setup(testConfig(topo), in); err != nil {
		t.Fatal(err)
	}
	wHot, wMaster, wPriv, wDist := in.weights()
	cross := in.Prof.CrossShare
	if wHot <= 0 || wMaster <= 0 || wPriv <= 0 || wDist <= 0 || cross <= 0 || cross >= 0.5 {
		t.Fatalf("profile weights %v %v %v %v, cross %v: every stream must carry traffic, and the own slice more than the cross share",
			wHot, wMaster, wPriv, wDist, cross)
	}
	check := func() {
		t.Helper()
		nn := topo.NumNodes()
		combined := combinedDistInto(nil, in.dist)
		for _, th := range in.Threads {
			want := make([]float64, nn)
			add := func(weight float64, dist []float64) {
				for n, share := range dist {
					want[n] += weight * share
				}
			}
			if in.hot.Replicated {
				want[th.Node] += wHot
			} else {
				add(wHot, in.hot.HotDist())
			}
			add(wMaster, in.master.AccessDist())
			add(wPriv, in.priv[th.ID].AccessDist())
			add(wDist*(1-cross), in.dist[th.ID].AccessDist())
			add(wDist*cross, combined)
			row := in.row(th.ID, nn)
			for n := range want {
				if d := row[n] - want[n]; d > 1e-12 || d < -1e-12 {
					t.Fatalf("thread %d (node %d) row[%d] = %v, want %v", th.ID, th.Node, n, row[n], want[n])
				}
			}
		}
	}
	in.refreshStreams()
	check()
	// Replication redirects the hot stream into the thread's own node.
	in.hot.Replicate()
	in.refreshStreams()
	check()
	// The fold reuses its buffer: no growth across epochs.
	before := cap(in.rows)
	in.refreshStreams()
	if cap(in.rows) != before {
		t.Fatal("foldRows reallocated the row buffer")
	}
}

func TestCombinedDistWeightsByPageCount(t *testing.T) {
	// Two slices of very different sizes: the combined distribution must
	// be dominated by the larger one, not an unweighted average.
	a := NewRegion("a", 0, 4)
	for i := 0; i < 3; i++ {
		a.AddPage(mem.PFN(i), 0)
	}
	b := NewRegion("b", 1, 4)
	b.AddPage(100, 1)
	d := combinedDistInto(nil, []*Region{a, b})
	if d[0] != 0.75 || d[1] != 0.25 {
		t.Fatalf("combined dist = %v, want [0.75 0.25 0 0]", d)
	}
	sum := 0.0
	for _, x := range d {
		sum += x
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("combined dist sums to %v", sum)
	}
	// Empty groups and empty regions are handled.
	if got := combinedDistInto(nil, nil); got != nil {
		t.Fatalf("empty group dist = %v", got)
	}
	empty := NewRegion("e", 2, 4)
	d = combinedDistInto(nil, []*Region{a, empty})
	if d[0] != 1 {
		t.Fatalf("dist with empty member = %v", d)
	}
}

func TestRegionHotDist(t *testing.T) {
	r := NewRegion("hot", -1, 4)
	r.AddPage(0, 2)
	r.AddPage(1, 3)
	hd := r.HotDist()
	if hd[2] != 1 || hd[3] != 0 {
		t.Fatalf("hot dist = %v (all accesses hit page 0)", hd)
	}
}

func TestRunCompletes(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	in := &Instance{Prof: testProfile(), Backend: newStub(topo, false), NThreads: 48}
	res, err := new(Runner).Run(testConfig(topo), in)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].TimedOut {
		t.Fatal("run timed out")
	}
	if res[0].Completion <= 0 {
		t.Fatal("no completion time")
	}
	if res[0].Stats.TotalAccesses <= 0 {
		t.Fatal("no accesses recorded")
	}
}

func TestRunDeterminism(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	run := func() sim.Time {
		in := &Instance{Prof: testProfile(), Backend: newStub(topo, false), NThreads: 48, Carrefour: true}
		res, err := new(Runner).Run(testConfig(topo), in)
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Completion
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestLocalityBeatsSpread(t *testing.T) {
	// A private-access-heavy profile must finish faster with on-toucher
	// placement than with spread placement.
	topo := numa.AMD48Scaled(64)
	prof := testProfile() // cg.C: mostly private/dist-local
	local := &Instance{Prof: prof, Backend: newStub(topo, false), NThreads: 48}
	spread := &Instance{Prof: prof, Backend: newStub(topo, true), NThreads: 48}
	cfg := testConfig(topo)
	resLocal, err := new(Runner).Run(cfg, local)
	if err != nil {
		t.Fatal(err)
	}
	resSpread, err := new(Runner).Run(cfg, spread)
	if err != nil {
		t.Fatal(err)
	}
	if resLocal[0].Completion >= resSpread[0].Completion {
		t.Fatalf("local placement (%v) not faster than spread (%v)",
			resLocal[0].Completion, resSpread[0].Completion)
	}
	if resLocal[0].Locality <= resSpread[0].Locality {
		t.Fatal("locality metric inverted")
	}
}

func TestMasterSlaveImbalance(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	prof, _ := workload.Get("facesim") // master-heavy
	prof.BaselineSeconds = 0.3
	in := &Instance{Prof: prof, Backend: newStub(topo, false), NThreads: 48}
	res, err := new(Runner).Run(testConfig(topo), in)
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: facesim first-touch imbalance ≈ 253 %.
	if res[0].Imbalance < 200 {
		t.Fatalf("master-slave imbalance = %v, want > 200%%", res[0].Imbalance)
	}
}

func TestCarrefourMigratesImbalancedWorkload(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	prof, _ := workload.Get("facesim")
	prof.BaselineSeconds = 0.3
	base := &Instance{Prof: prof, Backend: newStub(topo, false), NThreads: 48}
	carr := &Instance{Prof: prof, Backend: newStub(topo, false), NThreads: 48, Carrefour: true}
	cfg := testConfig(topo)
	resBase, _ := new(Runner).Run(cfg, base)
	resCarr, _ := new(Runner).Run(cfg, carr)
	if resCarr[0].Migrated == 0 {
		t.Fatal("Carrefour migrated nothing on a master-slave workload")
	}
	if resCarr[0].Completion >= resBase[0].Completion {
		t.Fatalf("Carrefour did not help facesim under first-touch: %v vs %v",
			resCarr[0].Completion, resBase[0].Completion)
	}
}

func TestConsolidationSlowsDown(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	full := newStub(topo, false)
	half := newStub(topo, false)
	half.share = 0.5
	cfg := testConfig(topo)
	r1, _ := new(Runner).Run(cfg, &Instance{Prof: testProfile(), Backend: full, NThreads: 48})
	r2, _ := new(Runner).Run(cfg, &Instance{Prof: testProfile(), Backend: half, NThreads: 48})
	if float64(r2[0].Completion) < 1.5*float64(r1[0].Completion) {
		t.Fatalf("half CPU share did not roughly double completion: %v vs %v",
			r2[0].Completion, r1[0].Completion)
	}
}

func TestIOBoundThrottling(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	prof, _ := workload.Get("belief")
	prof.BaselineSeconds = 0.3
	in := &Instance{Prof: prof, Backend: newStub(topo, false), NThreads: 48}
	cfg := testConfig(topo)
	res, _ := new(Runner).Run(cfg, in)
	noIO := prof
	noIO.DiskMBps = 0
	in2 := &Instance{Prof: noIO, Backend: newStub(topo, false), NThreads: 48}
	res2, _ := new(Runner).Run(cfg, in2)
	if res[0].Completion < res2[0].Completion {
		t.Fatal("disk demand sped the run up")
	}
}

func TestTimeout(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	prof := testProfile()
	prof.BaselineSeconds = 1000
	cfg := testConfig(topo)
	cfg.MaxTime = 100 * sim.Millisecond
	res, err := new(Runner).Run(cfg, &Instance{Prof: prof, Backend: newStub(topo, false), NThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].TimedOut {
		t.Fatal("runaway run not marked TimedOut")
	}
}

func TestTwoInstancesContend(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	cfg := testConfig(topo)
	alone, _ := new(Runner).Run(cfg, &Instance{Prof: testProfile(), Backend: newStub(topo, false), NThreads: 24})
	a := &Instance{Prof: testProfile(), Backend: newStub(topo, true), NThreads: 24}
	b := &Instance{Prof: testProfile(), Backend: newStub(topo, true), NThreads: 24}
	both, err := new(Runner).Run(cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Two spread instances share controllers and links: each must be
	// slower than a single local instance.
	if both[0].Completion <= alone[0].Completion {
		t.Fatalf("no contention between instances: %v vs %v", both[0].Completion, alone[0].Completion)
	}
}

func TestInvalidConfigs(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	if _, err := new(Runner).Run(Config{}, &Instance{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := testConfig(topo)
	if _, err := new(Runner).Run(cfg); err == nil {
		t.Fatal("no instances accepted")
	}
	if _, err := new(Runner).Run(cfg, &Instance{Prof: testProfile(), Backend: newStub(topo, false)}); err == nil {
		t.Fatal("zero threads accepted")
	}
}

// outOfMemoryStub places pages like stubBackend until its budget runs
// out, then fails every placement as a full machine does.
type outOfMemoryStub struct {
	*stubBackend
	budget int
}

func (b *outOfMemoryStub) Place(r *Region, n int, toucher numa.NodeID) (sim.Time, error) {
	if n > b.budget {
		return 0, fmt.Errorf("stub: placing %d pages: %w", n, mem.ErrNoMemory)
	}
	b.budget -= n
	return b.stubBackend.Place(r, n, toucher)
}

// TestRunReturnsPlacementError: a placement that fails while the
// instance's memory materializes surfaces as Run's error, naming the
// application, instead of a panic.
func TestRunReturnsPlacementError(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	b := &outOfMemoryStub{stubBackend: newStub(topo, false), budget: 64}
	res, err := new(Runner).Run(testConfig(topo), &Instance{Prof: testProfile(), Backend: b, NThreads: 4})
	if !errors.Is(err, mem.ErrNoMemory) {
		t.Fatalf("Run error = %v, want one wrapping mem.ErrNoMemory", err)
	}
	if !strings.Contains(err.Error(), "materializing cg.C") || res != nil {
		t.Fatalf("Run = %v, %q; want no results and an error naming cg.C", res, err)
	}
}

// TestBurstsDegradeLowClassUnderCarrefour reproduces §3.5.2: on a
// locality-friendly ("low") application, temporary remote bursts mislead
// Carrefour into migrating private pages away, degrading the remainder
// of the run relative to plain first-touch placement.
func TestBurstsDegradeLowClassUnderCarrefour(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	prof := testProfile() // cg.C: low class
	prof.Burstiness = 1   // burst at every decision interval
	cfg := testConfig(topo)
	plain, err := new(Runner).Run(cfg, &Instance{Prof: prof, Backend: newStub(topo, false), NThreads: 48})
	if err != nil {
		t.Fatal(err)
	}
	carr, err := new(Runner).Run(cfg, &Instance{Prof: prof, Backend: newStub(topo, false), NThreads: 48, Carrefour: true})
	if err != nil {
		t.Fatal(err)
	}
	if carr[0].Completion <= plain[0].Completion {
		t.Fatalf("bursty Carrefour did not degrade the low-class app: %v vs %v",
			carr[0].Completion, plain[0].Completion)
	}
	if carr[0].Locality >= plain[0].Locality {
		t.Fatalf("locality not degraded: %.2f vs %.2f", carr[0].Locality, plain[0].Locality)
	}
}

// TestMCSRemovesIPIOverhead: a pthread-blocking profile on a virtualized
// backend speeds up when MCS is enabled.
func TestMCSRemovesIPIOverhead(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	prof, _ := workload.Get("streamcluster")
	prof.BaselineSeconds = 0.3
	b := newStub(topo, false)
	virt := *b
	virtBackend := &virtualizedStub{stubBackend: &virt}
	cfg := testConfig(topo)
	noMCS, err := new(Runner).Run(cfg, &Instance{Prof: prof, Backend: virtBackend, NThreads: 48})
	if err != nil {
		t.Fatal(err)
	}
	b2 := newStub(topo, false)
	virt2 := *b2
	withMCS, err := new(Runner).Run(cfg, &Instance{Prof: prof, Backend: &virtualizedStub{stubBackend: &virt2}, NThreads: 48, MCS: true})
	if err != nil {
		t.Fatal(err)
	}
	if withMCS[0].Completion >= noMCS[0].Completion {
		t.Fatalf("MCS did not help: %v vs %v", withMCS[0].Completion, noMCS[0].Completion)
	}
}

// virtualizedStub wraps stubBackend with guest-mode IPIs.
type virtualizedStub struct{ *stubBackend }

func (v *virtualizedStub) Virtualized() bool { return true }

// TestReplicatedHotRegionGoesLocal: the replication variant makes the
// hot stream local for every thread.
func TestReplicatedHotRegionGoesLocal(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	prof, _ := workload.Get("streamcluster") // hot share 0.17
	prof.BaselineSeconds = 0.3
	cfg := testConfig(topo)
	base, err := new(Runner).Run(cfg, &Instance{Prof: prof, Backend: newStub(topo, true), NThreads: 48})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := new(Runner).Run(cfg, &Instance{Prof: prof, Backend: newStub(topo, true), NThreads: 48,
		Carrefour: true, CarrefourMode: carrefour.ModeReplicationOnly})
	if err != nil {
		t.Fatal(err)
	}
	if rep[0].Locality <= base[0].Locality {
		t.Fatalf("replication did not raise locality: %.2f vs %.2f", rep[0].Locality, base[0].Locality)
	}
}
