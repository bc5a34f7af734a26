package numa

import "testing"

func TestTLBMissRateCoverage(t *testing.T) {
	m := DefaultTLB()
	// Working set within reach: no misses. 4 KiB reach = 4 MiB.
	if got := m.MissRate(2<<20, false); got != 0 {
		t.Fatalf("in-reach miss rate = %v", got)
	}
	// Twice the reach: 50 % misses.
	if got := m.MissRate(8<<20, false); got < 0.49 || got > 0.51 {
		t.Fatalf("2× reach miss rate = %v, want ~0.5", got)
	}
	// 2 MiB pages reach 256 MiB: the same 8 MiB working set fits.
	if got := m.MissRate(8<<20, true); got != 0 {
		t.Fatalf("large-page miss rate = %v", got)
	}
}

func TestTLBMissRateMonotonic(t *testing.T) {
	m := DefaultTLB()
	prev := -1.0
	for ws := float64(1 << 20); ws < 1<<34; ws *= 2 {
		got := m.MissRate(ws, false)
		if got < prev {
			t.Fatalf("miss rate not monotonic at ws=%v", ws)
		}
		if got < 0 || got >= 1 {
			t.Fatalf("miss rate %v out of [0,1)", got)
		}
		prev = got
	}
}

func TestTLBVirtualizedWalkCostsMore(t *testing.T) {
	m := DefaultTLB()
	const ws = 64 << 20
	native := m.WalkPenaltyCycles(ws, false, false)
	guest := m.WalkPenaltyCycles(ws, false, true)
	if guest <= 2*native {
		t.Fatalf("nested walk (%v) not ≫ native (%v)", guest, native)
	}
}
