package numa

import "fmt"

// AMD48Nodes is the node count of the evaluation machine, exposed so
// callers that only need the count (per-node sweeps, CLI validation) do
// not have to build and validate a full topology. The count is
// scale-independent: AMD48Scaled divides memory banks, never nodes.
const AMD48Nodes = 8

// AMD48Scaled builds the evaluation machine of the paper, with each
// node's memory bank divided by scale for fast simulations whose
// footprints are divided by the same factor. At scale 1 it has 8 NUMA
// nodes, 6 CPUs and 16 GiB per node (48 cores, 128 GiB total), four
// Opteron 6174 sockets each holding two nodes, HyperTransport links with
// a maximum distance of two hops, and PCI buses on nodes 0 and 6. The
// CPU/link structure does not depend on scale.
//
// The link graph follows the Opteron 6100 ("Magny-Cours") arrangement:
// the two nodes of a socket are directly connected, and sockets are
// cross-connected so that the network diameter is 2.
func AMD48Scaled(scale int) *Topology {
	if scale < 1 {
		panic("numa: scale must be >= 1")
	}
	const (
		nodes   = AMD48Nodes
		cpusPer = 6
	)
	memPerNode := int64(16<<30) / int64(scale)
	t := &Topology{Latency: DefaultLatency()}
	cpu := CPUID(0)
	for n := 0; n < nodes; n++ {
		node := Node{ID: NodeID(n), MemBytes: int64(memPerNode)}
		for c := 0; c < cpusPer; c++ {
			node.CPUs = append(node.CPUs, cpu)
			t.cpuNode = append(t.cpuNode, NodeID(n))
			cpu++
		}
		node.PCIBus = n == 0 || n == 6
		t.Nodes = append(t.Nodes, node)
	}

	// Adjacency: node pairs directly connected by an HT link. Each
	// socket s holds nodes 2s and 2s+1. Intra-socket pairs plus a
	// cross-socket mesh give diameter 2 (verified by Validate/BFS).
	adjacent := [][2]NodeID{
		// intra-socket
		{0, 1}, {2, 3}, {4, 5}, {6, 7},
		// inter-socket mesh (each node links to two foreign sockets)
		{0, 2}, {0, 4}, {1, 3}, {1, 5},
		{2, 6}, {3, 7}, {4, 6}, {5, 7},
		{0, 6}, {1, 7}, {2, 4}, {3, 5},
	}
	// Asymmetric bandwidth, max 6 GiB/s (paper §5.1): intra-socket links
	// are full width, cross-socket are narrower.
	const (
		fullBW = 6 << 30 // 6 GiB/s
		halfBW = 3 << 30
	)
	for _, pair := range adjacent {
		bw := float64(halfBW)
		if pair[1]-pair[0] == 1 && pair[0]%2 == 0 {
			bw = float64(fullBW)
		}
		t.Links = append(t.Links, Link{From: pair[0], To: pair[1], BandwidthBps: bw})
		t.Links = append(t.Links, Link{From: pair[1], To: pair[0], BandwidthBps: bw})
	}
	t.computeRoutes()
	if err := t.Validate(); err != nil {
		panic(fmt.Sprintf("numa: AMD48 topology invalid: %v", err))
	}
	return t
}

// SmallMachine builds a reduced machine for tests: nNodes nodes in a ring
// (plus chords when nNodes > 4), cpusPerNode CPUs and memPerNode bytes of
// memory per node.
func SmallMachine(nNodes, cpusPerNode int, memPerNode int64) *Topology {
	if nNodes < 1 || cpusPerNode < 1 || memPerNode < 1 {
		panic("numa: SmallMachine requires positive sizes")
	}
	t := &Topology{Latency: DefaultLatency()}
	cpu := CPUID(0)
	for n := 0; n < nNodes; n++ {
		node := Node{ID: NodeID(n), MemBytes: memPerNode, PCIBus: n == 0}
		for c := 0; c < cpusPerNode; c++ {
			node.CPUs = append(node.CPUs, cpu)
			t.cpuNode = append(t.cpuNode, NodeID(n))
			cpu++
		}
		t.Nodes = append(t.Nodes, node)
	}
	const bw = 6 << 30
	for n := 0; n < nNodes; n++ {
		m := (n + 1) % nNodes
		if m == n {
			break
		}
		t.Links = append(t.Links, Link{From: NodeID(n), To: NodeID(m), BandwidthBps: bw})
		t.Links = append(t.Links, Link{From: NodeID(m), To: NodeID(n), BandwidthBps: bw})
		if nNodes > 4 { // chord to keep the diameter small
			k := (n + nNodes/2) % nNodes
			if k != n {
				t.Links = append(t.Links, Link{From: NodeID(n), To: NodeID(k), BandwidthBps: bw})
			}
		}
	}
	t.computeRoutes()
	if err := t.Validate(); err != nil {
		panic(fmt.Sprintf("numa: SmallMachine topology invalid: %v", err))
	}
	return t
}

// computeRoutes fills the distance matrix and per-pair link routes with a
// BFS shortest path over the link graph.
func (t *Topology) computeRoutes() {
	n := len(t.Nodes)
	// adjacency: out[i] = list of (neighbor, link index)
	type edge struct {
		to   NodeID
		link int
	}
	out := make([][]edge, n)
	for i, l := range t.Links {
		out[l.From] = append(out[l.From], edge{to: l.To, link: i})
	}
	t.distance = make([][]int, n)
	t.route = make([][][]int, n)
	for s := 0; s < n; s++ {
		dist := make([]int, n)
		prevEdge := make([]int, n)
		prevNode := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range out[u] {
				v := int(e.to)
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					prevEdge[v] = e.link
					prevNode[v] = u
					queue = append(queue, v)
				}
			}
		}
		t.distance[s] = dist
		t.route[s] = make([][]int, n)
		for d := 0; d < n; d++ {
			if d == s {
				continue
			}
			if dist[d] < 0 {
				panic(fmt.Sprintf("numa: node %d unreachable from %d", d, s))
			}
			var links []int
			for v := d; v != s; v = prevNode[v] {
				links = append(links, prevEdge[v])
			}
			// reverse so the route reads source→destination
			for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
				links[i], links[j] = links[j], links[i]
			}
			t.route[s][d] = links
		}
	}
}
