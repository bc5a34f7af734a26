// Consolidation: two virtual machines sharing the 48-core machine, the
// scenario of the paper's Figures 8 and 9.
//
//	go run ./examples/consolidation
//
// Two VMs run cg.C and sp.C side by side, first both with Xen's default
// round-1G policy, then each with its best policy selected through the
// SetPolicy hypercall. In the colocated setting each VM owns half the
// NUMA nodes (24 vCPUs each); in the consolidated setting both span all
// 48 CPUs and every physical CPU runs two vCPUs. All four configurations
// are named first, which submits them to the experiment scheduler, so
// they are simulated concurrently; reading a handle then waits for that
// configuration alone.
package main

import (
	"fmt"
	"os"

	xennuma "repro"
	"repro/internal/exp"
)

func main() {
	// A failing simulation surfaces as a panic from the suite; exit
	// non-zero with the message instead of a stack trace.
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintln(os.Stderr, "consolidation:", p)
			os.Exit(1)
		}
	}()

	s := exp.NewSuite(64)
	const def = "round-1g"
	const bestA = "first-touch"        // cg.C's best (Table 4)
	const bestB = "round-4k/carrefour" // sp.C's best (Table 4)

	modes := []struct {
		name string
		m    xennuma.PairMode
	}{
		{"colocated (24 vCPUs each, split nodes)", xennuma.Colocated},
		{"consolidated (48 vCPUs each, 2 vCPUs per CPU)", xennuma.Consolidated},
	}
	// Name every cell first, then read the results as they complete.
	var defaults, bests []*exp.Cell
	for _, mode := range modes {
		defaults = append(defaults, s.XenPair("cg.C", def, "sp.C", def, mode.m, false))
		bests = append(bests, s.XenPair("cg.C", bestA, "sp.C", bestB, mode.m, false))
	}

	for i, mode := range modes {
		fmt.Printf("== %s ==\n", mode.name)
		d, b := defaults[i].Results(), bests[i].Results()
		a0, b0, a1, b1 := d[0], d[1], b[0], b[1]
		fmt.Printf("  cg.C: default %8v  best(first-touch)    %8v  → %+.0f%%\n",
			a0.Completion, a1.Completion,
			100*(float64(a0.Completion)/float64(a1.Completion)-1))
		fmt.Printf("  sp.C: default %8v  best(r4k/carrefour)  %8v  → %+.0f%%\n",
			b0.Completion, b1.Completion,
			100*(float64(b0.Completion)/float64(b1.Completion)-1))
	}
	fmt.Println("\nBecause the policy is selected per virtual machine, consolidated")
	fmt.Println("workloads with different access patterns each get the placement")
	fmt.Println("they need (§5.4.2).")
}
