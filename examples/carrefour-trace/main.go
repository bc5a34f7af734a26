// Carrefour trace: watch the dynamic policy's decision loop converge.
//
//	go run ./examples/carrefour-trace
//
// This example drives the Carrefour user component (§3.4, §4.3) directly
// against a synthetic master-slave placement: 16384 hot pages sit on
// node 0 and every node's threads hammer them, overloading node 0's
// memory controller. Each tick the controller interleaves hot pages away
// from the overloaded node, at most its 4096-page budget; the trace
// shows controller utilization and the migration counts until the load
// is balanced — exactly the interleave heuristic the paper ports into
// Xen.
package main

import (
	"fmt"

	"repro/internal/carrefour"
	"repro/internal/numa"
)

// set is a trivial in-memory PageSet.
type set struct{ nodes []numa.NodeID }

func (s *set) Len() int                 { return len(s.nodes) }
func (s *set) NodeOf(i int) numa.NodeID { return s.nodes[i] }
func (s *set) Migrate(i int, to numa.NodeID) bool {
	if s.nodes[i] == to {
		return false
	}
	s.nodes[i] = to
	return true
}

func main() {
	const nodes = 8
	pages := &set{nodes: make([]numa.NodeID, 16384)} // all on node 0
	var ctl carrefour.Controller

	accessors := make([]float64, nodes)
	for i := range accessors {
		accessors[i] = 1.0 / nodes // every node accesses the set
	}

	fmt.Println("tick  ctrl-util(node0..7)                          moved  note")
	for tick := 1; tick <= 8; tick++ {
		// Controller load follows the placement: each node's utilization
		// is proportional to the pages it hosts (plus a background 5%).
		util := make([]float64, nodes)
		for _, n := range pages.nodes {
			util[n] += 0.9 / float64(pages.Len())
		}
		for i := range util {
			util[i] += 0.05
		}

		moved := ctl.Step(carrefour.Tick{
			CtrlUtil: util,
			Samples: []carrefour.Sample{{
				Set:         pages,
				AccessShare: 0.9,
				Accessors:   accessors,
				Hot:         true,
			}},
		})

		fmt.Printf("%4d  [", tick)
		for i, u := range util {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%4.2f", u)
		}
		fmt.Printf("]  %5d", moved)
		if moved == 0 {
			fmt.Println("  balanced — interleave heuristic idle")
			break
		}
		fmt.Println()
	}
	fmt.Printf("\ncontroller totals: %d interleaved, %d locality moves over %d ticks\n",
		ctl.Interleaved, ctl.LocalityMoved, ctl.Ticks)
}
