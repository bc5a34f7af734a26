package exp

import (
	"fmt"
	"sync/atomic"

	xennuma "repro"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// fiCell is the fault site at cell execution: a fired error or panic
// stands in for a failing simulation, exercising the suite's
// errored-cell eviction without a real defect.
var fiCell = faultinject.Register("exp.cell")

// Suite runs and memoizes simulations so the experiments can share
// results (fig6, fig10 and table4 reuse the fig2/fig7 sweeps). The cell
// accessors (Linux, Xen, XenSeeded, XenPair) name a cell and return its
// *Cell handle: the first naming claims the key in a singleflight cache
// and submits the computation to the suite's worker pool, later namings
// return the same handle. A driver names all its cells first, so they
// run at the pool's full width, and then reads each handle, which waits
// for that cell alone. Every method is safe for concurrent use, so any
// number of drivers may share one suite. Results are bit-for-bit
// deterministic for a fixed Opt.Seed regardless of the worker count
// (each cell derives its own random stream from the cell key).
//
// Cache keys carry the cell's seed, so one suite serves any number of
// seeds from the same scheduler and cache: the plain accessors read the
// suite's own seed's cells, the …Seeded variants any other seed's. A
// seeded cell's random stream depends only on (seed, cell key) — never
// on the suite's base seed — so its results are bit-for-bit identical
// to those of a fresh suite whose Opt.Seed is that seed.
type Suite struct {
	// Opt is the base options; policy/baseline fields are overridden per
	// run. Configure it before the first run: cells read it when they
	// execute.
	Opt xennuma.Options

	sched      *Scheduler
	cache      *resultCache
	computed   atomic.Int64
	cellErrors atomic.Int64
}

// NewSuite returns a suite at the given scale (0 = default) with one
// worker per CPU.
func NewSuite(scale int) *Suite { return NewSuiteParallel(scale, 0) }

// NewSuiteParallel returns a suite whose cells run on at most
// workers goroutines (<= 0 selects runtime.GOMAXPROCS(0)). Each suite
// carries its own warm-machine pool: cells lease and reset pre-built
// machines instead of cold-building one per run (set Opt.NoPool to
// force the fresh-build reference path).
func NewSuiteParallel(scale, workers int) *Suite {
	return &Suite{
		Opt:   xennuma.Options{Scale: scale, Pool: xennuma.NewPool()},
		sched: NewScheduler(workers),
		cache: newResultCache(),
	}
}

// Workers returns the scheduler's concurrency bound.
func (s *Suite) Workers() int { return s.sched.Workers() }

// PoolStats reports the suite pool's warm-machine leases: hits found a
// pre-built machine to reset, misses cold-built one. Zero when the
// suite has no pool attached.
func (s *Suite) PoolStats() (hits, misses uint64) {
	if s.Opt.Pool == nil {
		return 0, 0
	}
	return s.Opt.Pool.Stats()
}

// CellsComputed returns how many cell executions have run, retries
// included (cache hits excluded). A cell's executions are counted
// before its readers are released.
func (s *Suite) CellsComputed() int64 { return s.computed.Load() }

// CellErrors returns how many cell executions ended in an error or a
// recovered panic — the suite's degraded-mode counter. A failed
// execution is retried once; a cell that fails twice is evicted from
// the cache, so a later naming of the same key recomputes instead of
// replaying the failure.
func (s *Suite) CellErrors() int64 { return s.cellErrors.Load() }

// PoolResetDrops reports the suite pool's reset-failure drops (zero
// when no pool is attached).
func (s *Suite) PoolResetDrops() uint64 {
	if s.Opt.Pool == nil {
		return 0
	}
	return s.Opt.Pool.ResetDrops()
}

// LinuxPolicies are the four combinations of Figure 2.
var LinuxPolicies = []string{"first-touch", "first-touch/carrefour", "round-4k", "round-4k/carrefour"}

// XenPolicies are the five configurations of Figure 7.
var XenPolicies = []string{"round-1g", "round-4k", "first-touch", "round-4k/carrefour", "first-touch/carrefour"}

// cellFn computes one cell's results from the cell's derived options.
type cellFn func(o xennuma.Options) ([]engine.Result, error)

// baseSeed returns the suite's own seed with the zero default
// normalized to 1 (matching cellSeed and Options.normalized), so the
// two spellings of the default share cache entries.
func (s *Suite) baseSeed() uint64 {
	if s.Opt.Seed == 0 {
		return 1
	}
	return s.Opt.Seed
}

// cacheKey is the memoization key of one (seed, cell) pair.
func cacheKey(seed uint64, key string) string {
	return fmt.Sprintf("seed=%d/%s", seed, key)
}

// cellOpts returns the per-cell options: the suite's base options with
// the seed replaced by the cell's own key-derived stream. The stream
// depends only on (seed, key) — a seeded cell computes exactly what a
// fresh suite based on that seed would.
func (s *Suite) cellOpts(seed uint64, key string) xennuma.Options {
	o := s.Opt
	o.Seed = cellSeed(seed, key)
	return o
}

// cell names a cell: the first naming claims the key and submits the
// computation to the scheduler, later namings return the same handle.
func (s *Suite) cell(seed uint64, key string, fn cellFn) *Cell {
	cl, created := s.cache.claim(cacheKey(seed, key))
	if created {
		s.sched.Submit(func() { s.compute(cl, seed, key, fn) })
	}
	return cl
}

// compute runs a claimed cell on a scheduler worker. A failed execution
// is counted and retried once, so one fault stays invisible to readers;
// a second failure evicts the cell, so readers that hold it see the
// error but the next naming of the key recomputes — one bad execution
// never poisons the cache. The counters and the eviction settle before
// done closes, so a reader returning from Result observes them.
func (s *Suite) compute(cl *Cell, seed uint64, key string, fn cellFn) {
	o := s.cellOpts(seed, key)
	for try := 0; try < 2; try++ {
		cl.res, cl.err = execute(fn, o)
		s.computed.Add(1)
		if cl.err == nil {
			break
		}
		s.cellErrors.Add(1)
	}
	if cl.err != nil {
		s.cache.evict(cl)
	}
	close(cl.done)
}

// execute runs fn once, turning an injected fault or a panic into the
// cell's error.
func execute(fn cellFn, o xennuma.Options) (res []engine.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	if err := fiCell.Fire(); err != nil {
		return nil, err
	}
	return fn(o)
}

// Linux names the native run of app under pol; mcs selects the
// MCS-lock variant (LinuxNUMA baseline).
func (s *Suite) Linux(app, pol string, mcs bool) *Cell {
	key := fmt.Sprintf("linux/%s/%s/mcs=%v", app, pol, mcs)
	return s.cell(s.baseSeed(), key, func(o xennuma.Options) ([]engine.Result, error) {
		o.MCS = mcs
		p, err := xennuma.ParsePolicy(pol)
		if err != nil {
			return nil, err
		}
		r, err := xennuma.RunLinux(app, p, o)
		if err != nil {
			return nil, err
		}
		return []engine.Result{r}, nil
	})
}

// Xen names the run of app in a single 48-vCPU VM under pol; xenplus
// enables the improved baseline (passthrough + MCS).
func (s *Suite) Xen(app, pol string, xenplus bool) *Cell {
	return s.XenSeeded(app, pol, xenplus, s.baseSeed())
}

// XenSeeded is Xen for an explicit seed, served from the same cache and
// scheduler: the result is bit-for-bit what a fresh suite with
// Opt.Seed = seed would compute. Seed 0 means 1, as everywhere else.
func (s *Suite) XenSeeded(app, pol string, xenplus bool, seed uint64) *Cell {
	if seed == 0 {
		seed = 1
	}
	key := fmt.Sprintf("xen/%s/%s/plus=%v", app, pol, xenplus)
	return s.cell(seed, key, func(o xennuma.Options) ([]engine.Result, error) {
		o.XenPlus = xenplus
		p, err := xennuma.ParsePolicy(pol)
		if err != nil {
			return nil, err
		}
		r, err := xennuma.RunXen(app, p, o)
		if err != nil {
			return nil, err
		}
		return []engine.Result{r}, nil
	})
}

// nameAll names every key's cells through name, in key order, so a
// driver submits all of them before it reads any.
func nameAll[K, T any](keys []K, name func(key K) T) []T {
	out := make([]T, len(keys))
	for i, k := range keys {
		out[i] = name(k)
	}
	return out
}

// sweep is one application's cells under a list of policies, named in
// list order.
type sweep struct {
	pols  []string
	cells []*Cell
}

// nameSweep names one cell per policy through name.
func nameSweep(pols []string, name func(pol string) *Cell) sweep {
	return sweep{pols, nameAll(pols, name)}
}

// linuxSweep names app's native runs under the four policies of Figure
// 2; with mcs it is the LinuxNUMA sweep whose best Table 4 reports.
func (s *Suite) linuxSweep(app string, mcs bool) sweep {
	return nameSweep(LinuxPolicies, func(p string) *Cell { return s.Linux(app, p, mcs) })
}

// xenSweep names app's Xen+NUMA sweep (the five policies of Figure 7).
func (s *Suite) xenSweep(app string) sweep {
	return nameSweep(XenPolicies, func(p string) *Cell { return s.Xen(app, p, true) })
}

// result waits for pol's cell.
func (w sweep) result(pol string) engine.Result {
	for i, p := range w.pols {
		if p == pol {
			return w.cells[i].Result()
		}
	}
	panic(fmt.Sprintf("exp: policy %q is not in the sweep", pol))
}

// best returns the policy minimizing completion and its result; a tie
// keeps the earlier policy.
func (w sweep) best() (string, engine.Result) {
	bestPol, bestRes := "", engine.Result{}
	for i, p := range w.pols {
		r := w.cells[i].Result()
		if bestPol == "" || r.Completion < bestRes.Completion {
			bestPol, bestRes = p, r
		}
	}
	return bestPol, bestRes
}

// numaSweeps is one app's LinuxNUMA and Xen+NUMA sweeps, whose bests
// Table 4 and Figure 10 compare.
type numaSweeps struct{ linux, xen sweep }

// numaSweeps names app's LinuxNUMA sweep, then its Xen+NUMA sweep.
func (s *Suite) numaSweeps(app string) numaSweeps {
	return numaSweeps{s.linuxSweep(app, true), s.xenSweep(app)}
}

// Apps returns the evaluation's application list.
func Apps() []string { return workload.Names() }

// CacheKeys lists memoized cells (for tests).
func (s *Suite) CacheKeys() []string { return s.cache.keys() }
