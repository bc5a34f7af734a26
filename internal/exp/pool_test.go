package exp

import (
	"reflect"
	"testing"

	xennuma "repro"
	"repro/internal/engine"
)

// poolApps and poolModes make up the pool test's cell mix: the full
// native and Xen policy sweeps for each app plus one swaptions+ep.D
// pair per mode. Every cell runs at scale 256 and every Xen cell under
// Xen+, so the mix holds two machine identities: the native machine and
// the XenPlus machine, which the pairs share with the single-VM cells.
var (
	poolApps  = []string{"swaptions", "ep.D"}
	poolModes = []xennuma.PairMode{xennuma.Colocated, xennuma.Consolidated}
)

// poolCells runs the pool test's cell mix through the suite's scheduler
// and returns every result in a fixed order, along with the pool's hit
// and miss counts and the cells the suite computed.
func poolCells(t *testing.T, workers int, noPool bool) (res []engine.Result, hits, misses uint64, cells int64) {
	t.Helper()
	s := NewSuiteParallel(256, workers)
	s.Opt.Seed = 7
	s.Opt.NoPool = noPool
	for _, app := range poolApps {
		s.PrefetchLinuxSweep(app)
		s.PrefetchXenSweep(app)
	}
	for _, mode := range poolModes {
		s.PrefetchXenPair("swaptions", "first-touch", "ep.D", "round-4k", mode, false)
	}
	s.Join()
	for _, app := range poolApps {
		for _, p := range LinuxPolicies {
			res = append(res, s.Linux(app, p, true))
		}
		for _, p := range XenPolicies {
			res = append(res, s.Xen(app, p, true))
		}
	}
	for _, mode := range poolModes {
		a, b := s.XenPair("swaptions", "first-touch", "ep.D", "round-4k", mode, false)
		res = append(res, a, b)
	}
	hits, misses = s.PoolStats()
	return res, hits, misses, s.CellsComputed()
}

// TestPooledCellsMatchFreshSuites pins the warm-machine pool end to
// end: a suite leasing and resetting pooled machines, native and Xen,
// must produce results bit-for-bit identical to the Options.NoPool
// reference path that cold-builds every cell, at one worker and at
// several (leases are exclusive, so worker count must not matter).
// Every computed cell leases exactly one machine. The pool must also
// actually fire, or the comparison is vacuous. At one worker its work
// is exact: each machine identity cold-builds once and every later
// lease finds that machine released, whatever size of VM it last
// hosted. Several workers may each hold a machine of one identity at
// once, so there only a hit is required.
func TestPooledCellsMatchFreshSuites(t *testing.T) {
	want, _, _, _ := poolCells(t, 1, true)
	const machines = 2 // native and XenPlus, both at scale 256
	leases := uint64(len(poolApps)*(len(LinuxPolicies)+len(XenPolicies)) + len(poolModes))
	for _, workers := range []int{1, 4} {
		got, hits, misses, cells := poolCells(t, workers, false)
		if hits+misses != uint64(cells) {
			t.Errorf("workers=%d: pool hits+misses = %d+%d, want one lease per computed cell (%d)", workers, hits, misses, cells)
		}
		if workers == 1 && (hits != leases-machines || misses != machines) {
			t.Errorf("workers=1: pool hits/misses = %d/%d, want %d/%d", hits, misses, leases-machines, machines)
		}
		if hits == 0 {
			t.Errorf("workers=%d: pool never hit; test is vacuous", workers)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: result counts differ: %d vs %d", workers, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d: result %d diverges:\npooled: %+v\nfresh:  %+v", workers, i, got[i], want[i])
			}
		}
	}
}
