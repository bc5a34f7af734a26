package exp

import (
	"reflect"
	"testing"

	xennuma "repro"
	"repro/internal/engine"
)

// poolApps, poolModes and poolIOPols make up the pool test's cell mix:
// the full native and Xen+ policy sweeps for each app, one
// swaptions+ep.D pair per mode, and the disk-heavy bfs under each eager
// layout, first under plain Xen and then under Xen+. bfs's DMA path
// depends on the passthrough driver its domain requests, so passthrough
// state a shared machine carried from one lease to the next would change
// a result. Every cell runs at scale 256, so the mix holds two machine
// identities: the native machine and the Xen machine, which plain-Xen,
// Xen+ and pair cells all share.
var (
	poolApps   = []string{"swaptions", "ep.D"}
	poolModes  = []xennuma.PairMode{xennuma.Colocated, xennuma.Consolidated}
	poolIOPols = []string{"round-1g", "round-4k"}
)

// poolCells runs the pool test's cell mix through the suite's scheduler
// and returns every result in a fixed order, along with the pool's hit
// and miss counts and the cells the suite computed.
func poolCells(t *testing.T, workers int, noPool bool) (res []engine.Result, hits, misses uint64, cells int64) {
	t.Helper()
	s := NewSuiteParallel(256, workers)
	s.Opt.Seed = 7
	s.Opt.NoPool = noPool
	var named []*Cell
	for _, app := range poolApps {
		named = append(named, s.linuxSweep(app, true).cells...)
		named = append(named, s.xenSweep(app).cells...)
	}
	for _, mode := range poolModes {
		named = append(named, s.XenPair("swaptions", "first-touch", "ep.D", "round-4k", mode, false))
	}
	for _, pol := range poolIOPols {
		named = append(named, s.Xen("bfs", pol, false), s.Xen("bfs", pol, true))
	}
	for _, c := range named {
		res = append(res, c.Results()...)
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
	const machines = 2 // native and Xen, both at scale 256
	leases := uint64(len(poolApps)*(len(LinuxPolicies)+len(XenPolicies)) + len(poolModes) + 2*len(poolIOPols))
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
