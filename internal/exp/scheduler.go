package exp

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// Scheduler fans simulation cells out across a bounded pool of workers.
// Submitted tasks wait in one FIFO queue, which at most Workers
// goroutines drain: a worker starts when a task arrives and fewer than
// Workers are running, and exits once the queue is empty. Tasks
// therefore start in submission order, and at one worker they also run
// in it. Results never depend on that order (each cell derives its own
// random stream), but which pooled machine a lease finds, and so how
// much its storage must grow, does. Submit and Wait must not be called
// concurrently from different goroutines (and tasks must not submit
// further tasks): the WaitGroup forbids an Add racing a Wait whose
// counter has reached zero.
type Scheduler struct {
	workers int

	mu      sync.Mutex
	queue   []func() // queue[head:] waits to run
	head    int
	running int // draining goroutines

	wg        sync.WaitGroup
	submitted atomic.Int64
	completed atomic.Int64
}

// NewScheduler returns a pool with the given concurrency; workers <= 0
// selects runtime.GOMAXPROCS(0).
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (s *Scheduler) Workers() int { return s.workers }

// Submit queues fn for execution and returns immediately.
func (s *Scheduler) Submit(fn func()) {
	s.wg.Add(1)
	s.submitted.Add(1)
	s.mu.Lock()
	s.queue = append(s.queue, fn)
	start := s.running < s.workers
	if start {
		s.running++
	}
	s.mu.Unlock()
	if start {
		go s.drain()
	}
}

// drain runs queued tasks, oldest first, until the queue is empty.
func (s *Scheduler) drain() {
	for fn := s.next(); fn != nil; fn = s.next() {
		fn()
		s.completed.Add(1)
		s.wg.Done()
	}
}

// next pops the oldest queued task, or retires the calling worker and
// returns nil when none is left. The emptied queue keeps its storage
// for the next batch.
func (s *Scheduler) next() func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
		s.running--
		return nil
	}
	fn := s.queue[s.head]
	s.queue[s.head] = nil
	s.head++
	return fn
}

// Wait blocks until every submitted task has finished.
func (s *Scheduler) Wait() { s.wg.Wait() }

// Stats reports how many tasks were submitted and have completed.
func (s *Scheduler) Stats() (submitted, completed int64) {
	return s.submitted.Load(), s.completed.Load()
}

// cell is one memoized simulation: a single-VM run (one result) or a
// two-VM run (two results). The first claimer computes it; everyone else
// blocks on done. Computation never nests cells, so a claimer always
// makes progress and waiters cannot deadlock.
type cell struct {
	done chan struct{}
	res  []engine.Result
	err  error
}

// resultCache is a singleflight map from cell key to cell. One mutex
// guards it: a cell takes it for one map operation and then computes
// for milliseconds.
type resultCache struct {
	mu sync.Mutex
	m  map[string]*cell
}

func newResultCache() *resultCache {
	return &resultCache{m: make(map[string]*cell)}
}

// claim returns the cell for key, creating it if absent. created reports
// whether the caller is the one who must compute it and close done.
func (c *resultCache) claim(key string) (cl *cell, created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.m[key]; ok {
		return cl, false
	}
	cl = &cell{done: make(chan struct{})}
	c.m[key] = cl
	return cl, true
}

// get returns the cell for key without claiming it.
func (c *resultCache) get(key string) (*cell, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.m[key]
	return cl, ok
}

// resolved reports whether the cell's computation has finished (its
// res/err fields are safe to read).
func (cl *cell) resolved() bool {
	select {
	case <-cl.done:
		return true
	default:
		return false
	}
}

// evict removes key from the cache if it still maps to cl (pointer
// compare), so an errored cell does not poison every future read of
// its key. A concurrent re-claim that already replaced the entry is
// left alone.
func (c *resultCache) evict(key string, cl *cell) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[key] == cl {
		delete(c.m, key)
	}
}

// keys returns the sorted cell keys.
func (c *resultCache) keys() []string {
	c.mu.Lock()
	out := make([]string, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// cellSeed derives the simulation seed for one cell from the suite's
// base seed and the cell key. Every cell owns an independent random
// stream that depends only on (base, key), so results are bit-for-bit
// identical no matter how many workers run the suite or in which order
// the cells execute. A zero base is remapped to 1 to match
// Options.normalized.
func cellSeed(base uint64, key string) uint64 {
	if base == 0 {
		base = 1
	}
	z := fnv1a(key) ^ (base * 0x9E3779B97F4A7C15)
	// SplitMix64 finalizer.
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
