// Package noalloc is golden-test input for the noalloc analyzer.
package noalloc

import "fmt"

type point struct{ x, y int }

type buf struct {
	rows []float64
	//xnuma:scratch
	tmp  []int
	sink any
}

func consume(v any) { _ = v }

//xnuma:noalloc
func hotBad(b *buf, n int, name string) {
	b.rows = make([]float64, n) // want `make call in //xnuma:noalloc function hotBad`
	xs := []int{1, 2}           // want `slice literal \[\]int\{\.\.\.\}`
	seen := map[int]bool{}      // want `map literal map\[int\]bool\{\.\.\.\}`
	p := &point{x: 1}           // want `&point\{\.\.\.\} in //xnuma:noalloc function hotBad`
	f := func() {}              // want `function literal`
	s := fmt.Sprintf("x%d", n)  // want `fmt\.Sprintf call`
	t := "run-" + name          // want `string concatenation`
	var out []int
	out = append(out, n) // want `append onto non-scratch slice out`
	b.sink = n           // want `interface assignment to b\.sink`
	consume(n)           // want `interface argument n`
	_, _, _, _, _, _, _ = xs, seen, p, f, s, t, out
}

//xnuma:noalloc
func hotGuarded(b *buf, n int) {
	// Amortized growth: allocation under a capacity test is the scratch
	// idiom the hot path depends on.
	if cap(b.rows) < n {
		b.rows = make([]float64, n)
	}
	if b.tmp == nil {
		b.tmp = make([]int, 0, 8)
	}
	b.rows = b.rows[:n]
}

//xnuma:noalloc
func hotScratch(b *buf, n int) {
	// Reusing capacity: append onto buf[:0] or onto a //xnuma:scratch
	// declaration does not allocate in the steady state.
	b.rows = append(b.rows[:0], float64(n))
	b.tmp = append(b.tmp, n)
}

//xnuma:noalloc
func hotPanic(b *buf, n int) {
	// panic arguments are off the measured path.
	if n < 0 {
		panic(fmt.Sprintf("negative rows: %d", n))
	}
	b.rows[0] = float64(n)
}

// Unannotated functions may allocate freely.
func coldSetup(n int) *buf {
	return &buf{rows: make([]float64, n)}
}

//xnuma:noalloc
func hotBoxed(b *buf) {
	b.sink = point{} // want `interface assignment to b\.sink`
}
