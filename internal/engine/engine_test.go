package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

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
	r := NewRegion("r", RegionDist, 0, 4)
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
	r := NewRegion("r", RegionMaster, 0, 4)
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
	r := NewRegion("r", RegionMaster, 0, 4)
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
	hot := NewRegion("hot", RegionHot, 0, 4)
	hot.AddPage(0, 2)
	if hd := hot.HotDist(); hd[2] != 1 {
		t.Fatalf("hot dist = %v", hd)
	}
	hot.SetNode(0, 1)
	if hd := hot.HotDist(); hd[1] != 1 || hd[2] != 0 {
		t.Fatalf("stale hot dist after SetNode: %v", hd)
	}
	if !hot.Replicate() || hot.Replicate() {
		t.Fatal("Replicate not idempotent-with-report")
	}
}

// TestStreamTableRefresh checks the canonical stream enumeration: the
// per-thread emission order, the weight split of the distributed
// streams, and the replicated-hot local flag.
func TestStreamTableRefresh(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	in := &Instance{Prof: testProfile(), Backend: newStub(topo, false), NThreads: 4}
	r := &runner{cfg: testConfig(topo), insts: []*Instance{in}, rand: sim.NewRand(1)}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	in.refreshStreams()
	tbl := &in.streamTab
	kinds := []streamKind{streamHot, streamMaster, streamPrivate, streamDistOwn, streamDistCross}
	if len(tbl.streams) != len(kinds) {
		t.Fatalf("stream count = %d, want %d", len(tbl.streams), len(kinds))
	}
	for i, k := range kinds {
		if tbl.streams[i].kind != k {
			t.Fatalf("stream %d kind = %v, want %v", i, tbl.streams[i].kind, k)
		}
	}
	wH, wM, wP, wD := in.weights()
	cross := in.Prof.CrossShare
	if tbl.streams[0].weight != wH || tbl.streams[1].weight != wM || tbl.streams[2].weight != wP {
		t.Fatal("shared/private stream weights do not match the profile")
	}
	if tbl.streams[3].weight != wD*(1-cross) || tbl.streams[4].weight != wD*cross {
		t.Fatal("distributed stream weight split does not match CrossShare")
	}
	// Per-thread streams resolve through the owning thread's region.
	for _, th := range in.Threads {
		if got := tbl.streams[2].distFor(th); &got[0] != &in.priv[th.ID].AccessDist()[0] {
			t.Fatalf("private stream of thread %d resolves to the wrong region", th.ID)
		}
	}
	if tbl.streams[0].local {
		t.Fatal("hot stream local before replication")
	}
	in.hot.Replicate()
	in.refreshStreams()
	if !tbl.find(streamHot).local {
		t.Fatal("hot stream not local after replication")
	}
	// The refresh reuses the table storage: no growth across epochs.
	before := cap(tbl.streams)
	in.refreshStreams()
	if cap(tbl.streams) != before {
		t.Fatal("refreshStreams reallocated the stream slice")
	}
}

// TestFoldRowsMatchesStreams: the per-thread node rows the fixed-point
// loop consumes must equal the brute-force fold of the stream table
// (Σ_s weight·share per node, replicated streams landing on the
// thread's own node), and the backing buffer must be reused.
func TestFoldRowsMatchesStreams(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	in := &Instance{Prof: testProfile(), Backend: newStub(topo, true), NThreads: 4}
	r := &runner{cfg: testConfig(topo), insts: []*Instance{in}, rand: sim.NewRand(1)}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		nn := topo.NumNodes()
		for _, th := range in.Threads {
			want := make([]float64, nn)
			for si := range in.streamTab.streams {
				s := &in.streamTab.streams[si]
				if s.weight <= 0 {
					continue
				}
				if s.local {
					want[th.Node] += s.weight
					continue
				}
				for n, share := range s.distFor(th) {
					if share > 0 {
						want[n] += s.weight * share
					}
				}
			}
			row := in.row(th.ID, nn)
			for n := range want {
				if d := row[n] - want[n]; d > 1e-12 || d < -1e-12 {
					t.Fatalf("thread %d row[%d] = %v, want %v", th.ID, n, row[n], want[n])
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
	a := NewRegion("a", RegionDist, 0, 4)
	for i := 0; i < 3; i++ {
		a.AddPage(mem.PFN(i), 0)
	}
	b := NewRegion("b", RegionDist, 1, 4)
	b.AddPage(100, 1)
	d := combinedDist([]*Region{a, b})
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
	if got := combinedDist(nil); got != nil {
		t.Fatalf("empty group dist = %v", got)
	}
	empty := NewRegion("e", RegionDist, 2, 4)
	d = combinedDist([]*Region{a, empty})
	if d[0] != 1 {
		t.Fatalf("dist with empty member = %v", d)
	}
}

func TestRegionHotDist(t *testing.T) {
	r := NewRegion("hot", RegionHot, 0, 4)
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
	res, err := Run(testConfig(topo), in)
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
		res, err := Run(testConfig(topo), in)
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
	resLocal, err := Run(cfg, local)
	if err != nil {
		t.Fatal(err)
	}
	resSpread, err := Run(cfg, spread)
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
	res, err := Run(testConfig(topo), in)
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
	resBase, _ := Run(cfg, base)
	resCarr, _ := Run(cfg, carr)
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
	r1, _ := Run(cfg, &Instance{Prof: testProfile(), Backend: full, NThreads: 48})
	r2, _ := Run(cfg, &Instance{Prof: testProfile(), Backend: half, NThreads: 48})
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
	res, _ := Run(cfg, in)
	noIO := prof
	noIO.DiskMBps = 0
	in2 := &Instance{Prof: noIO, Backend: newStub(topo, false), NThreads: 48}
	res2, _ := Run(cfg, in2)
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
	res, err := Run(cfg, &Instance{Prof: prof, Backend: newStub(topo, false), NThreads: 4})
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
	alone, _ := Run(cfg, &Instance{Prof: testProfile(), Backend: newStub(topo, false), NThreads: 24})
	a := &Instance{Prof: testProfile(), Backend: newStub(topo, true), NThreads: 24}
	b := &Instance{Prof: testProfile(), Backend: newStub(topo, true), NThreads: 24}
	both, err := Run(cfg, a, b)
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
	if _, err := Run(Config{}, &Instance{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := testConfig(topo)
	if _, err := Run(cfg); err == nil {
		t.Fatal("no instances accepted")
	}
	if _, err := Run(cfg, &Instance{Prof: testProfile(), Backend: newStub(topo, false)}); err == nil {
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
	res, err := Run(testConfig(topo), &Instance{Prof: testProfile(), Backend: b, NThreads: 4})
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
	plain, err := Run(cfg, &Instance{Prof: prof, Backend: newStub(topo, false), NThreads: 48})
	if err != nil {
		t.Fatal(err)
	}
	carr, err := Run(cfg, &Instance{Prof: prof, Backend: newStub(topo, false), NThreads: 48, Carrefour: true})
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
	noMCS, err := Run(cfg, &Instance{Prof: prof, Backend: virtBackend, NThreads: 48})
	if err != nil {
		t.Fatal(err)
	}
	b2 := newStub(topo, false)
	virt2 := *b2
	withMCS, err := Run(cfg, &Instance{Prof: prof, Backend: &virtualizedStub{stubBackend: &virt2}, NThreads: 48, MCS: true})
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

// TestReplicatedHotRegionGoesLocal: the replication flag makes the hot
// stream local for every thread.
func TestReplicatedHotRegionGoesLocal(t *testing.T) {
	topo := numa.AMD48Scaled(64)
	prof, _ := workload.Get("streamcluster") // hot share 0.17
	prof.BaselineSeconds = 0.3
	cfg := testConfig(topo)
	base, err := Run(cfg, &Instance{Prof: prof, Backend: newStub(topo, true), NThreads: 48})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-replicate by running with Carrefour + replication enabled.
	cfg2 := cfg
	cfg2.Carrefour.EnableReplication = true
	rep, err := Run(cfg2, &Instance{Prof: prof, Backend: newStub(topo, true), NThreads: 48, Carrefour: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep[0].Locality <= base[0].Locality {
		t.Fatalf("replication did not raise locality: %.2f vs %.2f", rep[0].Locality, base[0].Locality)
	}
}
