// Package maporder is golden-test input for the maporder analyzer.
// Each `// want` comment is an expected diagnostic (regex over the
// message); lines without one must stay silent.
package maporder

import "sort"

type state struct {
	total float64
	log   []int
}

// Float accumulation in map order: the canonical nondeterminism bug
// (float addition does not commute bit-for-bit).
func sumFloats(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want `accumulates floating-point values`
		total += v
	}
	return total
}

// Appending values in map order yields a differently-ordered slice per
// run.
func collectValues(m map[int]string) []string {
	var out []string
	for _, v := range m { // want `appends to a result slice`
		out = append(out, v)
	}
	return out
}

// Mutating state outside the loop in map order.
func countBig(m map[int]int, threshold int) int {
	n := 0
	for _, v := range m { // want `updates n in iteration order`
		if v > threshold {
			n++
		}
	}
	return n
}

// Deleting from another map in iteration order mutates shared state in
// a nondeterministic sequence.
func pruneOther(m, other map[int]int) {
	for k := range m { // want `deletes from other in iteration order`
		delete(other, k)
	}
}

// Calls with side effects run in map order.
func drainAll(m map[int]*state) {
	for _, s := range m { // want `calls drain in iteration order`
		drain(s)
	}
}

func drain(s *state) { s.total = 0 }

// Exempt: pure key collection followed by a sort — the canonical
// deterministic idiom.
func sortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Clean: reads with loop-local effects only.
func anyNegative(m map[string]int) {
	for _, v := range m {
		if v < 0 {
			panic("negative entry")
		}
	}
}

// An order-independent reduction is flagged too: a finding has no
// escape hatch, so real code iterates sorted keys.
func maxValue(m map[int]int) int {
	best := 0
	for _, v := range m { // want `writes best in iteration order`
		if v > best {
			best = v
		}
	}
	return best
}
