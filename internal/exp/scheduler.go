package exp

import (
	"fmt"
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
// much its storage must grow, does. Submit is safe for concurrent use,
// so any number of drivers may share one pool; nothing waits for the
// queue as a whole, since each reader waits for its own cell.
type Scheduler struct {
	workers int

	mu      sync.Mutex
	queue   []func() // queue[head:] waits to run
	head    int
	running int // draining goroutines

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

// Stats reports how many tasks were submitted and have completed. A
// task counts as completed only after it returns, so the count may lag
// behind what its cell's readers already see.
func (s *Scheduler) Stats() (submitted, completed int64) {
	return s.submitted.Load(), s.completed.Load()
}

// Cell is a handle on one memoized simulation: a single-VM run (one
// result) or a two-VM run (two results). The suite accessors that name
// a cell return it; the first naming submits the cell's computation to
// the scheduler and every later one returns the same handle. Readers
// block on done for this cell alone. Computation never nests cells, so
// a queued cell always runs and readers cannot deadlock.
type Cell struct {
	key  string // the cache key, "seed=N/<cell key>"; N is 0 for a cell that reads no seed
	done chan struct{}
	res  []engine.Result
	err  error
}

// Results waits for the cell and returns one result per VM. The slice
// is the cache's own: callers must not modify it. A cell that failed
// panics with its key and error instead (see Suite.CellErrors).
func (c *Cell) Results() []engine.Result {
	<-c.done
	if c.err != nil {
		panic(fmt.Sprintf("exp: %s: %v", c.key, c.err))
	}
	return c.res
}

// Result waits for a single-VM cell and returns its result.
func (c *Cell) Result() engine.Result { return c.Results()[0] }

// resultCache is a singleflight map from cell key to cell. One mutex
// guards it: a cell takes it for one map operation and then computes
// for milliseconds.
type resultCache struct {
	mu sync.Mutex
	m  map[string]*Cell
}

func newResultCache() *resultCache {
	return &resultCache{m: make(map[string]*Cell)}
}

// claim returns the cell for key, creating it if absent. created reports
// whether the caller is the one who must compute it and close done.
func (c *resultCache) claim(key string) (cl *Cell, created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.m[key]; ok {
		return cl, false
	}
	cl = &Cell{key: key, done: make(chan struct{})}
	c.m[key] = cl
	return cl, true
}

// get returns the cell for key without claiming it.
func (c *resultCache) get(key string) (*Cell, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.m[key]
	return cl, ok
}

// resolved reports whether the cell's computation has finished (its
// res/err fields are safe to read).
func (cl *Cell) resolved() bool {
	select {
	case <-cl.done:
		return true
	default:
		return false
	}
}

// evict removes cl's key from the cache if it still maps to cl
// (pointer compare), so an errored cell does not poison every future
// naming of its key. A concurrent re-claim that already replaced the
// entry is left alone.
func (c *resultCache) evict(cl *Cell) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[cl.key] == cl {
		delete(c.m, cl.key)
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
