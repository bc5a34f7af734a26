package main

// Example pins the trace: three ticks each interleave one 4096-page
// budget away from the overloaded node, and the fourth finds the
// controllers balanced.
func Example() {
	main()
	// Output:
	// tick  ctrl-util(node0..7)                          moved  note
	//    1  [0.95 0.05 0.05 0.05 0.05 0.05 0.05 0.05]   4096
	//    2  [0.72 0.08 0.08 0.08 0.08 0.08 0.08 0.08]   4096
	//    3  [0.50 0.11 0.11 0.11 0.11 0.11 0.11 0.11]   4096
	//    4  [0.28 0.15 0.15 0.15 0.15 0.15 0.15 0.15]      0  balanced — interleave heuristic idle
	//
	// controller totals: 12288 interleaved, 0 locality moves over 4 ticks
}
