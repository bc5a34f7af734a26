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
// results (fig6, fig10 and table4 reuse the fig2/fig7 sweeps). Cells are
// deduplicated with a singleflight cache and can be fanned out across a
// worker pool with the Prefetch methods. The cell accessors (Linux, Xen,
// XenPair, Best*) are safe for concurrent use; a Prefetch…/Join batch
// must be driven from one goroutine at a time (the scheduler's WaitGroup
// forbids submitting concurrently with a pending Wait). Results are
// bit-for-bit deterministic for a fixed Opt.Seed regardless of the
// worker count (each cell derives its own random stream from the cell
// key).
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

// NewSuiteParallel returns a suite whose prefetched cells run on at most
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

// CellsComputed returns how many distinct simulation cells have been
// executed (cache hits excluded).
func (s *Suite) CellsComputed() int64 { return s.computed.Load() }

// CellErrors returns how many cell executions ended in an error or a
// recovered panic — the suite's degraded-mode counter. Each errored
// cell is evicted from the cache, so a later read of the same key
// recomputes instead of replaying the failure.
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

// cell resolves a cell: the first caller claims and computes it, later
// callers block until it is done. It never panics itself; results
// panics on error.
func (s *Suite) cell(seed uint64, key string, fn cellFn) *cell {
	cl, created := s.cache.claim(cacheKey(seed, key))
	if !created {
		<-cl.done
		return cl
	}
	s.compute(cl, seed, key, fn)
	return cl
}

// compute runs a claimed cell and closes its done channel, recovering
// panics into the cell's error so waiters are released. An errored cell
// is counted, evicted and not retained: waiters that already hold it
// observe the failure, but the next read of the key recomputes — one
// bad execution never poisons the cache.
func (s *Suite) compute(cl *cell, seed uint64, key string, fn cellFn) {
	func() {
		defer close(cl.done)
		defer func() {
			if p := recover(); p != nil {
				cl.err = fmt.Errorf("panic: %v", p)
			}
		}()
		if err := fiCell.Fire(); err != nil {
			cl.err = err
			return
		}
		cl.res, cl.err = fn(s.cellOpts(seed, key))
	}()
	s.computed.Add(1)
	if cl.err != nil {
		s.cellErrors.Add(1)
		s.cache.evict(cacheKey(seed, key), cl)
	}
}

func (s *Suite) results(seed uint64, key string, fn cellFn) []engine.Result {
	cl := s.cell(seed, key, fn)
	if cl.err != nil {
		panic(fmt.Sprintf("exp: %s: %v", cacheKey(seed, key), cl.err))
	}
	return cl.res
}

// prefetch claims a cell and schedules its computation on the worker
// pool, warming the cache. A failing cell is remembered and reported (as
// a panic) by the serial accessor that reads it, on the caller's
// goroutine rather than the worker's. A cell already claimed — computed,
// running, or prefetched and still queued — is not resubmitted.
func (s *Suite) prefetch(seed uint64, key string, fn cellFn) {
	cl, created := s.cache.claim(cacheKey(seed, key))
	if !created {
		return
	}
	s.sched.Submit(func() { s.compute(cl, seed, key, fn) })
}

// Join blocks until every prefetched cell has completed.
func (s *Suite) Join() { s.sched.Wait() }

func (s *Suite) linuxCell(app, pol string, mcs bool) (string, cellFn) {
	key := fmt.Sprintf("linux/%s/%s/mcs=%v", app, pol, mcs)
	return key, func(o xennuma.Options) ([]engine.Result, error) {
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
	}
}

func (s *Suite) xenCell(app, pol string, xenplus bool) (string, cellFn) {
	key := fmt.Sprintf("xen/%s/%s/plus=%v", app, pol, xenplus)
	return key, func(o xennuma.Options) ([]engine.Result, error) {
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
	}
}

// Linux runs app natively under pol; mcs selects the MCS-lock variant
// (LinuxNUMA baseline).
func (s *Suite) Linux(app, pol string, mcs bool) engine.Result {
	key, fn := s.linuxCell(app, pol, mcs)
	return s.results(s.baseSeed(), key, fn)[0]
}

// Xen runs app in a single 48-vCPU VM under pol; xenplus enables the
// improved baseline (passthrough + MCS).
func (s *Suite) Xen(app, pol string, xenplus bool) engine.Result {
	return s.XenSeeded(app, pol, xenplus, s.baseSeed())
}

// XenSeeded is Xen for an explicit seed, served from the same cache and
// scheduler: the result is bit-for-bit what a fresh suite with
// Opt.Seed = seed would compute. Seed 0 means the suite's own seed.
func (s *Suite) XenSeeded(app, pol string, xenplus bool, seed uint64) engine.Result {
	if seed == 0 {
		seed = s.baseSeed()
	}
	key, fn := s.xenCell(app, pol, xenplus)
	return s.results(seed, key, fn)[0]
}

// PrefetchLinux schedules one native run on the worker pool.
func (s *Suite) PrefetchLinux(app, pol string, mcs bool) {
	key, fn := s.linuxCell(app, pol, mcs)
	s.prefetch(s.baseSeed(), key, fn)
}

// PrefetchXen schedules one single-VM Xen run on the worker pool.
func (s *Suite) PrefetchXen(app, pol string, xenplus bool) {
	s.PrefetchXenSeeded(app, pol, xenplus, s.baseSeed())
}

// PrefetchXenSeeded schedules one single-VM Xen run for an explicit
// seed, so multi-seed sweeps batch every seed's cells on one pool.
// Seed 0 means the suite's own seed.
func (s *Suite) PrefetchXenSeeded(app, pol string, xenplus bool, seed uint64) {
	if seed == 0 {
		seed = s.baseSeed()
	}
	key, fn := s.xenCell(app, pol, xenplus)
	s.prefetch(seed, key, fn)
}

// PrefetchLinuxSweep schedules the full LinuxNUMA policy sweep for app
// (the cells BestLinux reads).
func (s *Suite) PrefetchLinuxSweep(app string) {
	for _, p := range LinuxPolicies {
		s.PrefetchLinux(app, p, true)
	}
}

// PrefetchXenSweep schedules the full Xen+NUMA policy sweep for app (the
// cells BestXen reads).
func (s *Suite) PrefetchXenSweep(app string) {
	for _, p := range XenPolicies {
		s.PrefetchXen(app, p, true)
	}
}

// BestLinux returns the policy minimizing completion natively (the
// LinuxNUMA policy of Table 4) and its result.
func (s *Suite) BestLinux(app string) (string, engine.Result) {
	return s.best(LinuxPolicies, func(p string) engine.Result { return s.Linux(app, p, true) })
}

// BestXen returns the policy minimizing completion under Xen+ (the
// Xen+NUMA policy of Table 4) and its result.
func (s *Suite) BestXen(app string) (string, engine.Result) {
	return s.best(XenPolicies, func(p string) engine.Result { return s.Xen(app, p, true) })
}

func (s *Suite) best(pols []string, run func(string) engine.Result) (string, engine.Result) {
	bestPol, bestRes := "", engine.Result{}
	for _, p := range pols {
		r := run(p)
		if bestPol == "" || r.Completion < bestRes.Completion {
			bestPol, bestRes = p, r
		}
	}
	return bestPol, bestRes
}

// Apps returns the evaluation's application list.
func Apps() []string { return workload.Names() }

// CacheKeys lists memoized cells (for tests).
func (s *Suite) CacheKeys() []string { return s.cache.keys() }
