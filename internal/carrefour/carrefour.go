// Package carrefour implements the dynamic NUMA policy of Dashti et
// al. [12] as ported into the hypervisor by the paper (§3.4, §4.3).
//
// The split mirrors the paper's port: the *system component* (in Xen)
// samples memory accesses — here, the per-region access statistics the
// simulation engine already maintains stand in for the IBS hardware
// counters — and exposes a page-migration primitive (the internal
// interface). The *user component* (a dom0 process) runs the decision
// loop below: when memory controllers are overloaded it interleaves hot
// pages from overloaded to underloaded nodes; when the interconnect
// saturates it migrates pages remotely accessed by a single node to that
// node. The paper leaves out the original Carrefour's replication
// heuristic, because it would require radical changes to the memory
// manager for marginal gain, so ModeFull never replicates; only
// ModeReplicationOnly runs it, for the §7 ablation (the advisor sweeps
// it as the /carrefour:replication variant).
package carrefour

import (
	"fmt"

	"repro/internal/numa"
)

// PageSet is the per-region view the decision loop manipulates: the
// placement of a set of pages plus the primitive to move one page. The
// engine adapts its regions (and their backing hypervisor page table)
// behind this interface.
type PageSet interface {
	// Len returns the number of pages in the set.
	Len() int
	// NodeOf returns the node currently backing page i.
	NodeOf(i int) numa.NodeID
	// Migrate moves page i to node, reporting whether it moved.
	Migrate(i int, to numa.NodeID) bool
}

// Sample is what the sampler reports about one page set for one
// interval.
type Sample struct {
	Set PageSet
	// AccessShare is the fraction of the virtual machine's memory
	// accesses hitting this set during the interval. Hotter sets are
	// considered first, like Carrefour's hot-page ranking.
	AccessShare float64
	// Accessors is the per-node share of the accesses *issued* against
	// this set (len = node count). A set with a single dominant accessor
	// is a candidate for the migration heuristic.
	Accessors []float64
	// Hot marks a tiny, extremely hot set (the hottest pages of the
	// interleave heuristic).
	Hot bool
	// ReadOnly marks a set accessed almost exclusively by reads —
	// the precondition of the replication heuristic.
	ReadOnly bool
}

// Replicator is the optional PageSet extension used by the replication
// heuristic: replicating a set gives every node a local copy. The
// original Carrefour implements this for read-only hot pages; the paper
// discards it in Xen because it would require radical memory-manager
// changes — only ModeReplicationOnly runs it here, for the ablation
// study.
type Replicator interface {
	Replicate()
}

// Tick is one sampling interval's machine state. Step reads a tick only
// while it runs, so a caller may pass its own buffers and reuse them
// afterwards.
type Tick struct {
	// CtrlUtil is the per-node memory-controller utilization in [0,1].
	CtrlUtil []float64
	// MaxLinkUtil is the utilization of the most loaded interconnect
	// link in [0,1].
	MaxLinkUtil float64
	Samples     []Sample
}

// Mode selects which of Carrefour's heuristics may run, the ablation
// knobs the paper's §7 names as future work (running Carrefour with
// only one mechanism isolates which heuristic an application actually
// needs). The zero value is the full policy as ported in §3.4.
type Mode int

const (
	// ModeFull runs the paper's two heuristics: interleave on
	// controller overload and locality migration on link saturation.
	// It never replicates (§3.4).
	ModeFull Mode = iota
	// ModeMigrationOnly keeps only the locality-migration heuristic:
	// no hot-page interleaving, no replication.
	ModeMigrationOnly
	// ModeReplicationOnly keeps only the replication heuristic; pages
	// are never migrated.
	ModeReplicationOnly
)

func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeMigrationOnly:
		return "migration-only"
	case ModeReplicationOnly:
		return "replication-only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// interleaves reports whether the hot-page interleave heuristic may run.
//
//xnuma:noalloc
func (m Mode) interleaves() bool { return m == ModeFull }

// migrates reports whether the locality-migration heuristic may run.
//
//xnuma:noalloc
func (m Mode) migrates() bool { return m == ModeFull || m == ModeMigrationOnly }

// replicates reports whether the replication heuristic may run.
//
//xnuma:noalloc
func (m Mode) replicates() bool { return m == ModeReplicationOnly }

// Decision thresholds, matching Carrefour's published behaviour scaled
// to this simulation's load metrics.
const (
	// ctrlOverload triggers the interleave heuristic when any
	// controller's utilization exceeds it.
	ctrlOverload = 0.25
	// ctrlImbalance additionally requires the max/mean controller ratio
	// to exceed this factor (a uniformly saturated machine gains nothing
	// from interleaving).
	ctrlImbalance = 1.5
	// linkSaturation triggers the migration heuristic.
	linkSaturation = 0.30
	// dominantAccessor is the single-node access share above which a set
	// qualifies for locality migration.
	dominantAccessor = 0.75
	// budgetPages caps migrations per tick (hardware-counter-driven
	// Carrefour moves only the hottest pages).
	budgetPages = 4096
)

// Controller is the user component's decision loop state. A zero
// Controller runs ModeFull, the paper's port.
type Controller struct {
	// mode restricts the controller to a subset of the heuristics
	// (§7's replication-only / migration-only variants).
	mode Mode

	// Counters.
	Ticks         uint64
	Interleaved   uint64
	LocalityMoved uint64
	rr            int

	// Scratch buffers reused across ticks so the decision loop allocates
	// nothing in the steady state (the engine runs it inside the epoch
	// loop).
	//xnuma:scratch
	over []numa.NodeID
	//xnuma:scratch
	under   []numa.NodeID
	isOver  []bool
	ordered []Sample
}

// Reset readies c for a new run in mode. The counters and the
// interleave cursor restart from zero; the scratch buffers keep their
// storage, so a reset controller decides exactly as a new one does
// without reallocating them.
func (c *Controller) Reset(mode Mode) {
	c.mode = mode
	c.Ticks, c.Interleaved, c.LocalityMoved = 0, 0, 0
	c.rr = 0
}

// Step runs one decision interval and returns the number of pages it
// migrated.
//
//xnuma:noalloc
func (c *Controller) Step(t Tick) int {
	c.Ticks++
	migrated := 0
	budget := budgetPages

	if c.mode.interleaves() && controllersOverloaded(t.CtrlUtil) {
		migrated += c.interleave(t, &budget)
	}
	if t.MaxLinkUtil > linkSaturation {
		if c.mode.replicates() {
			replicate(t)
		}
		if c.mode.migrates() {
			migrated += c.localityMigrate(t, &budget)
		}
	}
	return migrated
}

// replicate applies the replication heuristic: hot, read-only sets
// accessed from several nodes get a per-node copy, removing their remote
// traffic entirely.
//
//xnuma:noalloc
func replicate(t Tick) {
	for _, s := range t.Samples {
		if !s.Hot || !s.ReadOnly {
			continue
		}
		if _, share := dominantNode(s.Accessors); share >= dominantAccessor {
			continue // single accessor: migration is cheaper
		}
		if rep, ok := s.Set.(Replicator); ok {
			rep.Replicate()
		}
	}
}

//xnuma:noalloc
func controllersOverloaded(util []float64) bool {
	if len(util) == 0 {
		return false
	}
	var max, sum float64
	for _, u := range util {
		sum += u
		if u > max {
			max = u
		}
	}
	mean := sum / float64(len(util))
	if mean <= 0 {
		return false
	}
	return max > ctrlOverload && max/mean > ctrlImbalance
}

// interleave randomly migrates hot pages from overloaded nodes to
// underloaded nodes (§3.4).
//
//xnuma:noalloc
func (c *Controller) interleave(t Tick, budget *int) int {
	overloaded, underloaded := c.splitByLoad(t.CtrlUtil)
	if len(overloaded) == 0 || len(underloaded) == 0 {
		return 0
	}
	if cap(c.isOver) < len(t.CtrlUtil) {
		c.isOver = make([]bool, len(t.CtrlUtil))
	}
	isOver := c.isOver[:len(t.CtrlUtil)]
	for i := range isOver {
		isOver[i] = false
	}
	for _, n := range overloaded {
		isOver[n] = true
	}
	moved := 0
	// Hottest sets first: hot flags, then by access share.
	for _, s := range c.orderSamples(t.Samples) {
		if *budget <= 0 {
			break
		}
		for i := 0; i < s.Set.Len() && *budget > 0; i++ {
			if !isOver[s.Set.NodeOf(i)] {
				continue
			}
			dst := underloaded[c.rr%len(underloaded)]
			c.rr++
			if s.Set.Migrate(i, dst) {
				moved++
				c.Interleaved++
				*budget--
			}
		}
	}
	return moved
}

// localityMigrate moves pages of single-accessor sets to the accessing
// node (§3.4).
//
//xnuma:noalloc
func (c *Controller) localityMigrate(t Tick, budget *int) int {
	moved := 0
	for _, s := range c.orderSamples(t.Samples) {
		if *budget <= 0 {
			break
		}
		dom, share := dominantNode(s.Accessors)
		if share < dominantAccessor {
			continue
		}
		for i := 0; i < s.Set.Len() && *budget > 0; i++ {
			if s.Set.NodeOf(i) == dom {
				continue
			}
			if s.Set.Migrate(i, dom) {
				moved++
				c.LocalityMoved++
				*budget--
			}
		}
	}
	return moved
}

// splitByLoad partitions nodes into overloaded (above 1.2× mean) and
// underloaded (below 0.8× mean). The returned slices alias the
// controller's scratch buffers and stay valid until the next call.
//
//xnuma:noalloc
func (c *Controller) splitByLoad(util []float64) (over, under []numa.NodeID) {
	c.over, c.under = c.over[:0], c.under[:0]
	var sum float64
	for _, u := range util {
		sum += u
	}
	mean := sum / float64(len(util))
	for i, u := range util {
		switch {
		case u > 1.2*mean:
			c.over = append(c.over, numa.NodeID(i))
		case u < 0.8*mean:
			c.under = append(c.under, numa.NodeID(i))
		}
	}
	return c.over, c.under
}

// dominantNode returns the node with the largest accessor share.
//
//xnuma:noalloc
func dominantNode(accessors []float64) (numa.NodeID, float64) {
	best, bestShare := numa.NodeID(0), 0.0
	for i, a := range accessors {
		if a > bestShare {
			best, bestShare = numa.NodeID(i), a
		}
	}
	return best, bestShare
}

// orderSamples returns samples hottest-first without mutating the
// input. The returned slice aliases the controller's scratch buffer and
// stays valid until the next call.
//
//xnuma:noalloc
func (c *Controller) orderSamples(in []Sample) []Sample {
	if cap(c.ordered) < len(in) {
		c.ordered = make([]Sample, 0, len(in))
	}
	out := c.ordered[:len(in)]
	copy(out, in)
	// Insertion sort: sample counts are tiny (regions per VM).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && hotter(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

//xnuma:noalloc
func hotter(a, b Sample) bool {
	if a.Hot != b.Hot {
		return a.Hot
	}
	return a.AccessShare > b.AccessShare
}
