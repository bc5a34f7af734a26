package numa

import (
	"testing"
	"testing/quick"
)

func TestAMD48Shape(t *testing.T) {
	topo := AMD48Scaled(1)
	if got := topo.NumNodes(); got != 8 {
		t.Fatalf("nodes = %d, want 8", got)
	}
	// The cheap accessor must agree with the built topology at any scale.
	if AMD48Nodes != topo.NumNodes() || AMD48Nodes != AMD48Scaled(64).NumNodes() {
		t.Fatalf("AMD48Nodes = %d disagrees with the topology", AMD48Nodes)
	}
	if got := topo.NumCPUs(); got != 48 {
		t.Fatalf("CPUs = %d, want 48", got)
	}
	if got := topo.TotalMemory(); got != 128<<30 {
		t.Fatalf("memory = %d, want 128 GiB", got)
	}
	// PCI buses on nodes 0 and 6 (§5.1).
	for _, n := range topo.Nodes {
		want := n.ID == 0 || n.ID == 6
		if n.PCIBus != want {
			t.Errorf("node %d PCIBus = %v, want %v", n.ID, n.PCIBus, want)
		}
	}
}

func TestAMD48Diameter(t *testing.T) {
	topo := AMD48Scaled(1)
	maxDist := 0
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			d := topo.Distance(NodeID(i), NodeID(j))
			if d > maxDist {
				maxDist = d
			}
		}
	}
	if maxDist != 2 {
		t.Fatalf("network diameter = %d, want 2 (paper §5.1)", maxDist)
	}
}

func TestAMD48Routes(t *testing.T) {
	topo := AMD48Scaled(1)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			links := topo.RouteLinks(NodeID(i), NodeID(j))
			if len(links) != topo.Distance(NodeID(i), NodeID(j)) {
				t.Fatalf("route %d→%d has %d links, distance %d",
					i, j, len(links), topo.Distance(NodeID(i), NodeID(j)))
			}
			// The route must be connected: consecutive links chain.
			cur := NodeID(i)
			for _, li := range links {
				l := topo.Links[li]
				if l.From != cur {
					t.Fatalf("route %d→%d broken at link %v from %d", i, j, l, cur)
				}
				cur = l.To
			}
			if len(links) > 0 && cur != NodeID(j) {
				t.Fatalf("route %d→%d ends at %d", i, j, cur)
			}
		}
	}
}

func TestAMD48Scaled(t *testing.T) {
	topo := AMD48Scaled(64)
	if got := topo.TotalMemory(); got != (128<<30)/64 {
		t.Fatalf("scaled memory = %d", got)
	}
	if topo.NumCPUs() != 48 {
		t.Fatal("scaling must not change the CPU count")
	}
}

func TestNodeOf(t *testing.T) {
	topo := AMD48Scaled(1)
	for c := 0; c < 48; c++ {
		want := NodeID(c / 6)
		if got := topo.NodeOf(CPUID(c)); got != want {
			t.Fatalf("NodeOf(%d) = %d, want %d", c, got, want)
		}
	}
}

func TestValidateCatchesDuplicateCPU(t *testing.T) {
	topo := &Topology{
		Nodes: []Node{
			{ID: 0, CPUs: []CPUID{0, 1}},
			{ID: 1, CPUs: []CPUID{1}},
		},
		distance: [][]int{{0, 1}, {1, 0}},
	}
	if err := topo.Validate(); err == nil {
		t.Fatal("Validate accepted a CPU on two nodes")
	}
}

func TestSmallMachine(t *testing.T) {
	for _, nodes := range []int{1, 2, 4, 8} {
		topo := SmallMachine(nodes, 2, 1<<28)
		if topo.NumNodes() != nodes {
			t.Fatalf("SmallMachine(%d) has %d nodes", nodes, topo.NumNodes())
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("SmallMachine(%d): %v", nodes, err)
		}
	}
}

func TestLatencyTable3(t *testing.T) {
	lm := DefaultLatency()
	// Uncontended values must match the paper's Table 3 exactly.
	if got := lm.AccessCycles(0, 0, 0); got != 156 {
		t.Errorf("local uncontended = %v, want 156", got)
	}
	if got := lm.AccessCycles(1, 0, 0); got != 276 {
		t.Errorf("1-hop uncontended = %v, want 276", got)
	}
	if got := lm.AccessCycles(2, 0, 0); got != 383 {
		t.Errorf("2-hop uncontended = %v, want 383", got)
	}
	// Contended local within 2% of 697 cycles.
	got := lm.AccessCycles(0, 1, 0)
	if got < 683 || got > 711 {
		t.Errorf("local contended = %v, want ~697", got)
	}
}

func TestLatencyMonotonicInUtilization(t *testing.T) {
	lm := DefaultLatency()
	if err := quick.Check(func(a, b uint8) bool {
		u1, u2 := float64(a)/255, float64(b)/255
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		for hops := 0; hops <= 2; hops++ {
			if lm.AccessCycles(hops, u1, 0) > lm.AccessCycles(hops, u2, 0) {
				return false
			}
			if lm.AccessCycles(hops, 0, u1) > lm.AccessCycles(hops, 0, u2) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyMonotonicInDistance(t *testing.T) {
	lm := DefaultLatency()
	for _, u := range []float64{0, 0.3, 0.7, 1} {
		if !(lm.AccessCycles(0, u, u) < lm.AccessCycles(1, u, u)) ||
			!(lm.AccessCycles(1, u, u) < lm.AccessCycles(2, u, u)) {
			t.Fatalf("latency not monotonic in hops at util %v", u)
		}
	}
}

func TestLatencyClampsUtilization(t *testing.T) {
	lm := DefaultLatency()
	if lm.AccessCycles(0, 2.0, 0) != lm.AccessCycles(0, 1.0, 0) {
		t.Error("utilization above 1 not clamped")
	}
	if lm.AccessCycles(0, -1, 0) != lm.AccessCycles(0, 0, 0) {
		t.Error("negative utilization not clamped")
	}
}

func TestLinkBandwidthPositive(t *testing.T) {
	topo := AMD48Scaled(1)
	if len(topo.Links) == 0 {
		t.Fatal("no links")
	}
	for _, l := range topo.Links {
		if l.BandwidthBps <= 0 {
			t.Fatalf("link %v has non-positive bandwidth", l)
		}
		if l.BandwidthBps > 6<<30 {
			t.Fatalf("link %v exceeds the 6 GiB/s maximum (§5.1)", l)
		}
	}
}
