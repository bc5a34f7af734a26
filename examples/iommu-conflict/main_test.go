package main

// Example pins the §4.4.1 conclusion: under round-4K the IOMMU walk
// succeeds; after the switch to first-touch the passthrough driver is
// off and a DMA buffer from the flushed free list aborts the walk.
func Example() {
	main()
	// Output:
	// round-4K policy: every entry is populated
	//   IOMMU walk over the buffer aborts: false (faults: 0)
	//
	// switched to first-touch (free list flushed to the hypervisor)
	//   passthrough driver active: false  ← force-disabled by the hypervisor
	//   guest allocated a second buffer from the free list → entries invalid
	//   IOMMU walk over the buffer aborts: true (faults: 1)
	//   CPU touch resolves one page (placed on node 1); the DMA had already failed
	//
	// This is why the paper disables the IOMMU when evaluating
	// first-touch, and why disk-heavy applications regress under it
	// (Figure 7: dc.B, bfs, cc, pagerank, sssp, mongodb).
}
