// Package engine executes workloads against a placement backend (the Xen
// hypervisor stack or a native Linux stack) over the simulated machine.
//
// Execution is epoch-based: at the top of each epoch every instance
// folds its access streams — who accesses which region at which weight
// — straight from the regions into one node row per thread
// (streams.go); each runnable thread then issues memory accesses along
// its row, and the resulting per-controller and per-link loads feed the
// latency model, which in turn paces thread progress. Four damped
// fixed-point iterations per epoch make rates and latencies
// self-consistent; they walk threads × nodes only (the regions are
// folded out, placement being frozen within an epoch). All placement
// happens through real page-table and allocator operations in the
// backend, so the policies' mechanisms (not just their statistics) are
// exercised.
// The loop's outputs are the measurements the paper's evaluation
// reports (§5): completion time, memory-access imbalance and
// interconnect load (Table 1).
package engine

import (
	"strconv"

	"repro/internal/carrefour"
	"repro/internal/iosim"
	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Region is a set of pages with a uniform access pattern. Backends
// append pages as they materialize and update placement on migration.
type Region struct {
	Name string
	// Owner is the owning thread of a per-thread region (a dist or
	// private slice), or -1 for a shared one (hot, master).
	Owner int

	Pages  []mem.PFN
	nodes  []numa.NodeID
	hist   []float64 // page count per node
	nNodes int

	// headLimit, when positive, concentrates the region's accesses on
	// its first headLimit pages (the application's working set);
	// histHead tracks their placement separately.
	headLimit int
	histHead  []float64

	// Replicated marks a region whose pages have a copy on every node
	// (Carrefour's replication heuristic, when enabled): all accesses
	// become local.
	Replicated bool

	// Distribution caches. Placement mutations (AddPage, SetNode,
	// SetAccessHead, Replicate) mark them dirty; the accessors recompute
	// lazily and hand out the internal slice, so steady-state epochs
	// (no migrations) never allocate. One flag per cache: reading one
	// distribution must not mark the others clean.
	distCache   []float64
	accessCache []float64
	hotCache    []float64
	distDirty   bool
	accessDirty bool
	hotDirty    bool

	// gen counts placement mutations. refreshStreams sums the gens of
	// an instance's regions to detect that nothing moved since the last
	// fold and skip the fold entirely (steady-state epochs between
	// Carrefour ticks).
	gen uint64
}

// NewRegion returns an empty region for a machine with nNodes nodes.
func NewRegion(name string, owner, nNodes int) *Region {
	return &Region{
		Name: name, Owner: owner,
		hist: make([]float64, nNodes), nNodes: nNodes,
		distDirty: true, accessDirty: true, hotDirty: true,
	}
}

// invalidate marks every cached distribution stale after a placement
// mutation.
func (r *Region) invalidate() {
	r.distDirty, r.accessDirty, r.hotDirty = true, true, true
	r.gen++
}

// SetAccessHead declares that accesses concentrate on the first limit
// pages. Zero (the default) means the whole region is accessed.
func (r *Region) SetAccessHead(limit int) {
	r.headLimit = limit
	if len(r.histHead) != r.nNodes {
		r.histHead = make([]float64, r.nNodes)
	} else {
		for i := range r.histHead {
			r.histHead[i] = 0
		}
	}
	for i := 0; i < len(r.Pages) && i < limit; i++ {
		r.histHead[r.nodes[i]]++
	}
	r.invalidate()
}

// reset empties the region for a new run, keeping its identity (Name,
// Owner) and every backing buffer, so a rerun instance's regions
// refill without allocating.
func (r *Region) reset() {
	r.Pages = r.Pages[:0]
	r.nodes = r.nodes[:0]
	for i := range r.hist {
		r.hist[i] = 0
	}
	r.headLimit = 0
	for i := range r.histHead {
		r.histHead[i] = 0
	}
	r.Replicated = false
	r.invalidate()
}

// resetRegion readies a region for a new run: reg itself, emptied in
// place, when it spans nNodes nodes, otherwise a new region. Per-thread
// regions (owner >= 0) are named after their owner.
func resetRegion(reg *Region, name string, owner, nNodes int) *Region {
	if reg != nil && reg.nNodes == nNodes {
		reg.reset()
		return reg
	}
	if owner >= 0 {
		name += strconv.Itoa(owner)
	}
	return NewRegion(name, owner, nNodes)
}

// AddPage records a materialized page and its placement.
func (r *Region) AddPage(p mem.PFN, node numa.NodeID) {
	r.Pages = append(r.Pages, p)
	r.nodes = append(r.nodes, node)
	r.hist[node]++
	if r.headLimit > 0 && len(r.Pages) <= r.headLimit {
		r.histHead[node]++
	}
	r.invalidate()
}

// SetNode updates page i's placement after a migration.
func (r *Region) SetNode(i int, node numa.NodeID) {
	old := r.nodes[i]
	if old == node {
		return
	}
	r.hist[old]--
	r.hist[node]++
	if r.headLimit > 0 && i < r.headLimit {
		r.histHead[old]--
		r.histHead[node]++
	}
	r.nodes[i] = node
	r.invalidate()
}

// Replicate marks the region as having a copy on every node; a region
// already replicated is left as it is.
func (r *Region) Replicate() {
	if !r.Replicated {
		r.Replicated = true
		r.invalidate()
	}
}

// Len returns the number of materialized pages.
func (r *Region) Len() int { return len(r.Pages) }

// NodeOf returns page i's node.
func (r *Region) NodeOf(i int) numa.NodeID { return r.nodes[i] }

// Dist returns the placement distribution (shares per node summing to 1;
// uniform-zero when empty). The returned slice is owned by the region
// and stays valid until the next placement mutation; callers must not
// modify it.
//
//xnuma:noalloc
func (r *Region) Dist() []float64 {
	if r.distCache == nil {
		r.distCache = make([]float64, r.nNodes)
		r.distDirty = true
	}
	if r.distDirty {
		out := r.distCache
		for n := range out {
			out[n] = 0
		}
		if total := float64(len(r.Pages)); total > 0 {
			for n, c := range r.hist {
				out[n] = c / total
			}
		}
		r.distDirty = false
	}
	return r.distCache
}

// AccessDist returns the access-weighted placement distribution: the
// working-set head when SetAccessHead was called, the whole region
// otherwise. Like Dist, the returned slice is owned by the region and
// valid until the next placement mutation.
//
//xnuma:noalloc
func (r *Region) AccessDist() []float64 {
	if r.headLimit <= 0 || r.headLimit >= len(r.Pages) {
		return r.Dist()
	}
	if r.accessCache == nil {
		r.accessCache = make([]float64, r.nNodes)
		r.accessDirty = true
	}
	if r.accessDirty {
		total := 0.0
		for _, c := range r.histHead {
			total += c
		}
		if total == 0 {
			// An unmaterialized head carries no information; keep the
			// cache dirty so the head is picked up once pages land.
			return r.Dist()
		}
		for n, c := range r.histHead {
			r.accessCache[n] = c / total
		}
		r.accessDirty = false
	}
	return r.accessCache
}

// HotDist returns the access-weighted distribution for a hot region: all
// accesses hit the single hottest page (page 0). Like Dist, the returned
// slice is owned by the region and valid until the next placement
// mutation.
//
//xnuma:noalloc
func (r *Region) HotDist() []float64 {
	if r.hotCache == nil {
		r.hotCache = make([]float64, r.nNodes)
		r.hotDirty = true
	}
	if r.hotDirty {
		out := r.hotCache
		for n := range out {
			out[n] = 0
		}
		if len(r.Pages) > 0 {
			out[r.nodes[0]] = 1
		}
		r.hotDirty = false
	}
	return r.hotCache
}

// Backend materializes and migrates region pages on a concrete
// platform, and reports the platform's fixed characteristics.
type Backend interface {
	// Name identifies the platform and policy for reporting.
	Name() string
	// Place materializes n pages of r, first-touched from node toucher,
	// appending them to r. It returns the time charged to the touching
	// thread.
	Place(r *Region, n int, toucher numa.NodeID) (sim.Time, error)
	// Migrate moves page i of r to node, updating r on success.
	Migrate(r *Region, i int, to numa.NodeID) bool
	// ChurnOverhead is the fraction of a core's time lost to the
	// page-release notification path at the given per-core release rate.
	ChurnOverhead(releasesPerSec float64, threads int) float64
	// IO returns the platform's DMA path and buffer placement.
	IO() (iosim.Path, iosim.BufferPlacement)
	// Virtualized reports whether IPIs pay guest-mode costs.
	Virtualized() bool
	// ThreadNode returns the NUMA node thread i's CPU belongs to.
	ThreadNode(i int) numa.NodeID
	// CPUShare returns the fraction of a physical CPU available to
	// thread i (0.5 in consolidated setups).
	CPUShare(i int) float64
	// HomeNodes returns the nodes the instance's memory may use.
	HomeNodes() []numa.NodeID
}

// Thread is one application thread, bound 1:1 to a vCPU (or CPU).
type Thread struct {
	ID       int
	Node     numa.NodeID
	CPUShare float64

	WorkLeft float64 // remaining work units (one LLC miss each)
	DebtNs   float64 // stall time still to consume (init, faults, hypercalls)
	Done     bool
	DoneAt   sim.Time

	latNs float64 // smoothed memory access latency estimate
}

// Instance is one running application on one backend (one VM, or one
// native process). An instance may be run again, as a warm-pool lease
// does: the caller sets the public fields (Prof, Backend, NThreads,
// Carrefour, ...) exactly as on a fresh instance, and Run resets the
// private run state in place, reusing its storage, so the run is
// bit-for-bit that of a freshly constructed instance.
type Instance struct {
	Prof      workload.Profile
	Backend   Backend
	NThreads  int
	Carrefour bool
	// CarrefourMode restricts the instance's Carrefour controller to a
	// heuristic subset (§7's migration-only / replication-only knobs);
	// the zero value is ModeFull, the paper's port. Ignored when
	// Carrefour is off.
	CarrefourMode carrefour.Mode
	// MCS enables the spin-lock mitigation for pthread-blocking apps
	// (Xen+ and LinuxNUMA apply it to facesim and streamcluster).
	MCS bool
	// LargePages maps the instance's memory with 2 MiB pages when the
	// run's TLB model is enabled (§7 extension).
	LargePages bool

	Threads []*Thread
	// hot is the tiny set of hottest pages; its accesses concentrate on
	// effectively one page, so no static policy can balance it.
	hot *Region
	// master is memory allocated and first-touched by the master
	// thread, then accessed by everyone (the master-slave pattern).
	master *Region
	// dist holds one slice per thread: distributed-shared memory is
	// first-touched by its owning thread and mostly accessed by it, with
	// a CrossShare fraction of accesses hitting all slices uniformly.
	dist []*Region
	// priv holds each thread's private memory.
	priv  []*Region
	sizes regionSizes
	// pageBuf and nodeBuf back every region's Pages and nodes:
	// materialize hands each region a capacity-capped window of them, so
	// however the thread count splits the footprint, a rerun refills the
	// same two buffers.
	pageBuf []mem.PFN
	nodeBuf []numa.NodeID

	workPerThread  float64
	footprintBytes float64
	ioStream       iosim.Stream

	// Per-instance run constants, hoisted out of the fixed-point
	// iterations by setup: the profile's compute cost per work unit,
	// the CPU-overhead fraction (IPIs, churn, sampling — all inputs are
	// run-constant), the per-access TLB walk penalty (zero when the run
	// has no TLB model), and the I/O stream's per-epoch DMA emission
	// (iosim.Stream.Delivered is pure, so its outputs never change).
	cpuNsPerUnit float64
	overhead     float64
	tlbCycles    float64
	ioProgress   float64
	ioPerTarget  float64
	ioTargets    []numa.NodeID
	ioTargetBuf  [1]numa.NodeID

	// distAll is the scratch buffer backing the cross-slice combined
	// distribution; rows holds the streams folded into one node row per
	// thread (foldRows), the only view the fixed-point iterations read.
	distAll []float64
	rows    []float64

	// Row-dedup groups, rebuilt with the rows: live threads on the same
	// node whose folded rows are bitwise identical collapse into one
	// emission group (groupRep holds each group's representative thread
	// ID, groupOf maps every live thread to its group). The fixed-point
	// iterations emit traffic and derive access cost once per group —
	// with threads pinned across few nodes, that is nodes-many walks
	// instead of threads-many.
	groupRep []int32
	groupOf  []int32

	// Fold-skip state: the region-gen sum and live-thread count the
	// current rows were folded from. When neither moved, refreshStreams
	// skips the fold — its inputs (placement distributions, thread
	// homes, profile weights) are all value-stable.
	foldSum   uint64
	foldLive  int
	foldValid bool

	// burst state (Carrefour-misleading temporary remote accesses).
	burstLeft   int
	burstNode   numa.NodeID
	burstRegion *Region

	done       bool
	Completion sim.Time

	// Carrefour's page-copy traffic, charged to the next full epoch's
	// load: pendingMoves[src*nNodes+dst] holds the bytes pageSet.Migrate
	// copied from src to dst, and movesPending marks it non-empty.
	pendingMoves []float64
	movesPending bool
}

// regionSizes records the page budget of each region class.
type regionSizes struct {
	hot, master, priv, dist int
}

// weights returns the access-stream weights of the instance's profile.
//
//xnuma:noalloc
func (in *Instance) weights() (wHot, wMaster, wPriv, wDist float64) {
	p := in.Prof
	return p.HotShare, p.MasterShare, p.PrivateShare, p.DistShare
}

// Regions returns the instance's regions, with the placement its last
// run left them in: hot, master, then each thread's distributed slice
// and private region.
func (in *Instance) Regions() []*Region {
	regs := append([]*Region{in.hot, in.master}, in.dist...)
	return append(regs, in.priv...)
}

// AllDone reports whether every thread finished.
//
//xnuma:noalloc
func (in *Instance) AllDone() bool {
	for _, t := range in.Threads {
		if !t.Done {
			return false
		}
	}
	return true
}
