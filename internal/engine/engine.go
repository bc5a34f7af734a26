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
	"fmt"
	"math"
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
// Each page is stored in 5 bytes: its frame in 4 (a frame below 2^32;
// the machine at scale 1 has 2^25) and its node in 1 (a machine of at
// most 256 nodes; the modelled one has 8).
type Region struct {
	Name string
	// Owner is the owning thread of a per-thread region (a dist or
	// private slice), or -1 for a shared one (hot, master).
	Owner int

	pages  []uint32
	nodes  []uint8
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

	// gen counts placement mutations (AddPage, SetNode, SetAccessHead,
	// Replicate). refreshStreams sums the gens of an instance's regions
	// to detect that nothing moved since the last fold and skip the fold
	// entirely (steady-state epochs between Carrefour ticks).
	gen uint64
}

// NewRegion returns an empty region for a machine with nNodes nodes,
// at most 256.
func NewRegion(name string, owner, nNodes int) *Region {
	if nNodes > 256 {
		panic(fmt.Sprintf("engine: region %s: %d nodes do not fit a page's node byte", name, nNodes))
	}
	return &Region{
		Name: name, Owner: owner,
		hist: make([]float64, nNodes), nNodes: nNodes,
	}
}

// invalidate records a placement mutation.
func (r *Region) invalidate() {
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
	for i := 0; i < len(r.pages) && i < limit; i++ {
		r.histHead[r.nodes[i]]++
	}
	r.invalidate()
}

// reset empties the region for a new run, keeping its identity (Name,
// Owner) and every backing buffer, so a rerun instance's regions
// refill without allocating.
func (r *Region) reset() {
	r.pages = r.pages[:0]
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

// AddPage records a materialized page and its placement. A frame of
// 2^32 or above panics.
func (r *Region) AddPage(p mem.PFN, node numa.NodeID) {
	r.pages = append(r.pages, frame32(p))
	r.nodes = append(r.nodes, uint8(node))
	r.hist[node]++
	if r.headLimit > 0 && len(r.pages) <= r.headLimit {
		r.histHead[node]++
	}
	r.invalidate()
}

// SetPage records that page i is now frame p, as after a native
// migration. A frame of 2^32 or above panics.
func (r *Region) SetPage(i int, p mem.PFN) {
	r.pages[i] = frame32(p)
}

// frame32 narrows a frame to a region's 4-byte page entry.
func frame32(p mem.PFN) uint32 {
	if p > math.MaxUint32 {
		panic(fmt.Sprintf("engine: frame %#x does not fit a region's 4-byte page entry", uint64(p)))
	}
	return uint32(p)
}

// SetNode updates page i's placement after a migration.
func (r *Region) SetNode(i int, node numa.NodeID) {
	old := numa.NodeID(r.nodes[i])
	if old == node {
		return
	}
	r.hist[old]--
	r.hist[node]++
	if r.headLimit > 0 && i < r.headLimit {
		r.histHead[old]--
		r.histHead[node]++
	}
	r.nodes[i] = uint8(node)
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
func (r *Region) Len() int { return len(r.pages) }

// Page returns page i's frame.
func (r *Region) Page(i int) mem.PFN { return mem.PFN(r.pages[i]) }

// NodeOf returns page i's node.
func (r *Region) NodeOf(i int) numa.NodeID { return numa.NodeID(r.nodes[i]) }

// addAccessShares adds weight · (c / total) into dst[n] for every node
// n holding c > 0 of the region's accessed pages: its first headLimit
// pages when SetAccessHead limited the accesses to fewer pages than the
// region holds, every page otherwise. An empty region adds nothing.
//
//xnuma:noalloc
func (r *Region) addAccessShares(dst []float64, weight float64) {
	counts, total := r.hist, float64(len(r.pages))
	if r.headLimit > 0 && r.headLimit < len(r.pages) {
		// The head's counts then sum to exactly headLimit.
		counts, total = r.histHead, float64(r.headLimit)
	}
	for n, c := range counts {
		if c > 0 {
			dst[n] += weight * (c / total)
		}
	}
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
	// pageBuf and nodeBuf back every region's pages and nodes:
	// materialize hands each region a capacity-capped window of them, so
	// however the thread count splits the footprint, a rerun refills the
	// same two buffers.
	pageBuf []uint32
	nodeBuf []uint8

	workPerThread float64
	ioStream      iosim.Stream

	// Per-instance run constants, hoisted out of the fixed-point
	// iterations by setup: the profile's compute cost per work unit,
	// the CPU-overhead fraction (IPIs, churn, sampling — all inputs are
	// run-constant), and the I/O stream's per-epoch DMA emission
	// (iosim.Stream.Delivered is pure, so its outputs never change).
	cpuNsPerUnit float64
	overhead     float64
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
