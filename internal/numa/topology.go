// Package numa models the machine: NUMA nodes holding CPUs and a memory
// bank behind a memory controller, connected by point-to-point
// interconnect links (HyperTransport-style), plus the latency and
// contention behaviour the paper measures in Table 3.
//
// The model is intentionally first-order: memory access cost depends on
// the hop distance between the requesting CPU's node and the page's node,
// multiplied by congestion factors for the target memory controller and
// the traversed links. This is exactly the level at which the paper
// explains every one of its results (controller saturation for
// master-slave workloads, interconnect saturation for interleaved
// placement).
package numa

import "fmt"

// NodeID identifies a NUMA node.
type NodeID int

// CPUID identifies a physical CPU (hardware thread) machine-wide.
type CPUID int

// Node is one NUMA node: a set of CPUs, a memory bank and its controller.
type Node struct {
	ID       NodeID
	CPUs     []CPUID
	MemBytes int64 // capacity of the local memory bank
	// PCIBus is true when an I/O bus hangs off this node (nodes 0 and 6
	// on AMD48).
	PCIBus bool
}

// Link is a unidirectional interconnect link between two adjacent nodes.
type Link struct {
	From, To NodeID
	// BandwidthBps is the peak payload bandwidth in bytes per second.
	BandwidthBps float64
}

// Topology describes the whole machine.
type Topology struct {
	Nodes []Node
	Links []Link
	// distance[i][j] is the number of interconnect hops from node i to
	// node j (0 on the diagonal).
	distance [][]int
	// route[i][j] lists the link indices traversed from i to j.
	route [][][]int
	// cpuNode maps a CPU to its node.
	cpuNode []NodeID

	Latency LatencyModel
}

// LatencyModel holds the calibrated access costs, in CPU cycles, and the
// CPU frequency used to convert cycles to simulated time.
// Defaults reproduce the paper's Table 3 for AMD48.
type LatencyModel struct {
	FreqGHz float64 // cycles per nanosecond

	L1Cycles int // 5
	L2Cycles int // 16
	L3Cycles int // 48

	LocalCycles int // 156  uncontended local DRAM access
	Hop1Cycles  int // 276  one interconnect hop
	Hop2Cycles  int // 383  two interconnect hops

	// Contention calibration. With U = utilization of the target memory
	// controller in [0,1], the access cost is multiplied by
	// 1 + CtrlContention * U^CtrlExponent. The defaults make a fully
	// contended local access cost ~697 cycles (Table 3, 48 threads).
	CtrlContention float64
	CtrlExponent   float64

	// Link contention: each traversed link at utilization V adds
	// LinkContention * V^LinkExponent of the base cost.
	LinkContention float64
	LinkExponent   float64
}

// DefaultLatency returns the AMD48 calibration.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		FreqGHz:     2.2,
		L1Cycles:    5,
		L2Cycles:    16,
		L3Cycles:    48,
		LocalCycles: 156,
		Hop1Cycles:  276,
		Hop2Cycles:  383,
		// 156 * (1 + 3.47) ≈ 697; 276*(1+...)≈740 needs the hop base to
		// grow less with the same controller pressure, which matches the
		// paper: the contended penalty is dominated by the controller, so
		// remote contended ≈ local contended + hop delta.
		CtrlContention: 3.47,
		CtrlExponent:   2.0,
		LinkContention: 1.8,
		LinkExponent:   2.0,
	}
}

// BaseCycles returns the uncontended DRAM access cost for a given hop
// count.
//
//xnuma:noalloc
func (l LatencyModel) BaseCycles(hops int) int {
	switch hops {
	case 0:
		return l.LocalCycles
	case 1:
		return l.Hop1Cycles
	default:
		return l.Hop2Cycles
	}
}

// AccessCycles returns the access cost in cycles for hops interconnect
// hops, with the destination controller at ctrlUtil utilization and the
// most loaded traversed link at linkUtil utilization (both in [0,1]).
//
// The contended penalty is modeled on the controller of the target node
// (absolute cycles added, independent of distance — queueing happens at
// the controller) plus a link term proportional to the hop base.
//
//xnuma:noalloc
func (l LatencyModel) AccessCycles(hops int, ctrlUtil, linkUtil float64) float64 {
	base := float64(l.BaseCycles(hops))
	ctrlUtil = clamp01(ctrlUtil)
	linkUtil = clamp01(linkUtil)
	ctrlPenalty := float64(l.LocalCycles) * l.CtrlContention * pow(ctrlUtil, l.CtrlExponent)
	linkPenalty := 0.0
	if hops > 0 {
		linkPenalty = base * l.LinkContention * pow(linkUtil, l.LinkExponent)
	}
	return base + ctrlPenalty + linkPenalty
}

//xnuma:noalloc
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

//xnuma:noalloc
func pow(x, p float64) float64 {
	if p == 2.0 {
		return x * x
	}
	// Integer exponents only in practice; fall back to repeated squares.
	r := 1.0
	n := int(p)
	for i := 0; i < n; i++ {
		r *= x
	}
	return r
}

// NumNodes returns the node count.
//
//xnuma:noalloc
func (t *Topology) NumNodes() int { return len(t.Nodes) }

// NumCPUs returns the machine-wide CPU count.
func (t *Topology) NumCPUs() int { return len(t.cpuNode) }

// NodeOf returns the node owning cpu.
func (t *Topology) NodeOf(cpu CPUID) NodeID {
	if int(cpu) < 0 || int(cpu) >= len(t.cpuNode) {
		panic(fmt.Sprintf("numa: invalid CPU %d", cpu))
	}
	return t.cpuNode[cpu]
}

// Distance returns the hop count between two nodes.
func (t *Topology) Distance(a, b NodeID) int { return t.distance[a][b] }

// RouteLinks returns the indices (into Links) of the links traversed from
// a to b. Empty for a == b.
//
//xnuma:noalloc
func (t *Topology) RouteLinks(a, b NodeID) []int { return t.route[a][b] }

// TotalMemory returns the machine memory in bytes.
func (t *Topology) TotalMemory() int64 {
	var sum int64
	for _, n := range t.Nodes {
		sum += n.MemBytes
	}
	return sum
}

// Validate checks structural invariants: every CPU belongs to exactly one
// node, distances are symmetric and metric-ish, and every node is
// reachable.
func (t *Topology) Validate() error {
	seen := make(map[CPUID]NodeID)
	for _, n := range t.Nodes {
		for _, c := range n.CPUs {
			if prev, dup := seen[c]; dup {
				return fmt.Errorf("numa: CPU %d in both node %d and node %d", c, prev, n.ID)
			}
			seen[c] = n.ID
		}
	}
	for i := range t.Nodes {
		for j := range t.Nodes {
			if (t.distance[i][j] == 0) != (i == j) {
				return fmt.Errorf("numa: distance[%d][%d]=%d inconsistent", i, j, t.distance[i][j])
			}
			if t.distance[i][j] != t.distance[j][i] {
				return fmt.Errorf("numa: asymmetric distance between %d and %d", i, j)
			}
		}
	}
	return nil
}
