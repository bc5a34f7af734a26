package exp

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSchedulerBoundsConcurrency(t *testing.T) {
	const workers, tasks = 4, 32
	s := NewScheduler(workers)
	var cur, peak, ran atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(tasks)
	for i := 0; i < tasks; i++ {
		s.Submit(func() {
			defer wg.Done()
			c := cur.Add(1)
			mu.Lock()
			if c > peak.Load() {
				peak.Store(c)
			}
			mu.Unlock()
			ran.Add(1)
			cur.Add(-1)
		})
	}
	wg.Wait()
	if ran.Load() != tasks {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), tasks)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
	// A task counts as completed only after it returns, so the counter
	// may trail the tasks' own signal for a moment.
	for _, done := s.Stats(); done < tasks; _, done = s.Stats() {
		runtime.Gosched()
	}
	if sub, done := s.Stats(); sub != tasks || done != tasks {
		t.Fatalf("stats = (%d, %d), want (%d, %d)", sub, done, tasks, tasks)
	}
}

// TestSchedulerRunsInSubmissionOrder pins the FIFO queue: at one worker
// tasks run one at a time in the order they were submitted, so a
// suite's pooled machines see the same lease sequence on every run.
func TestSchedulerRunsInSubmissionOrder(t *testing.T) {
	const tasks = 200
	s := NewScheduler(1)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	wg.Add(tasks)
	for i := 0; i < tasks; i++ {
		s.Submit(func() {
			defer wg.Done()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	wg.Wait()
	if len(order) != tasks {
		t.Fatalf("ran %d tasks, want %d", len(order), tasks)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("task %d ran at position %d; order %v", got, i, order)
		}
	}
}

func TestSchedulerDefaultWorkers(t *testing.T) {
	if NewScheduler(0).Workers() <= 0 {
		t.Fatal("default worker count not positive")
	}
	if w := NewScheduler(7).Workers(); w != 7 {
		t.Fatalf("Workers() = %d, want 7", w)
	}
}

func TestCellSeed(t *testing.T) {
	a := cellSeed(1, "xen/cg.C/first-touch/plus=true")
	if b := cellSeed(1, "xen/cg.C/first-touch/plus=true"); a != b {
		t.Fatal("cellSeed not stable")
	}
	if b := cellSeed(1, "xen/sp.C/first-touch/plus=true"); a == b {
		t.Fatal("different keys share a seed")
	}
	if b := cellSeed(2, "xen/cg.C/first-touch/plus=true"); a == b {
		t.Fatal("different base seeds share a cell seed")
	}
	// Zero base is normalized to 1 (matching Options.normalized).
	if cellSeed(0, "k") != cellSeed(1, "k") {
		t.Fatal("zero base seed not remapped to 1")
	}
	if cellSeed(1, "k") == 0 {
		t.Fatal("cellSeed returned 0")
	}
}

// TestSingleflightDeduplicates: naming one cell many times returns one
// handle and submits one task, which computes the cell once.
func TestSingleflightDeduplicates(t *testing.T) {
	s := NewSuiteParallel(256, 8)
	first := s.Xen("swaptions", "round-4k", true)
	for i := 1; i < 16; i++ {
		if c := s.Xen("swaptions", "round-4k", true); c != first {
			t.Fatalf("naming %d returned a different handle", i)
		}
	}
	first.Result()
	if n := s.CellsComputed(); n != 1 {
		t.Fatalf("computed %d cells for 16 identical namings, want 1", n)
	}
	if submitted, _ := s.SchedulerStats(); submitted != 1 {
		t.Fatalf("submitted %d tasks for 16 identical namings, want 1", submitted)
	}
	if keys := s.CacheKeys(); len(keys) != 1 {
		t.Fatalf("cache keys = %v", keys)
	}
	// Naming the computed cell again is a cache hit.
	s.Xen("swaptions", "round-4k", true).Result()
	if n := s.CellsComputed(); n != 1 {
		t.Fatalf("cache hit recomputed the cell (computed=%d)", n)
	}
}

// TestFailedCellSurfacesOnRead: a cell that fails on a worker does not
// crash the process; reading its handle panics on the reader's
// goroutine with a message naming the cell. An unknown app or a policy
// that does not parse keeps the cell's seed in its key, and both
// executions of the cell count as cell errors.
func TestFailedCellSurfacesOnRead(t *testing.T) {
	for _, tc := range []struct{ app, pol, bad string }{
		{"no-such-app", "round-4k", "no-such-app"},
		{"swaptions", "no-such-policy", "no-such-policy"},
	} {
		s := NewSuiteParallel(256, 2)
		c := s.Xen(tc.app, tc.pol, true)
		if want := "seed=1/xen/" + tc.app + "/" + tc.pol + "/plus=true"; c.key != want {
			t.Errorf("%s: cell key %q, want %q", tc.bad, c.key, want)
		}
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("%s: reading a failed cell did not panic", tc.bad)
				}
				if msg, ok := p.(string); !ok || !strings.Contains(msg, tc.bad) {
					t.Fatalf("panic %v does not name the cell", p)
				}
			}()
			c.Result()
		}()
		if n := s.CellErrors(); n != 2 {
			t.Errorf("%s: %d cell errors, want 2 (the execution and its retry)", tc.bad, n)
		}
	}
}

func TestCacheShardingCoversKeys(t *testing.T) {
	c := newResultCache()
	keys := []string{"a", "b", "c", "linux/x/ft/mcs=true", "xen/y/r4k/plus=false", "pair/p"}
	for _, k := range keys {
		if _, created := c.claim(k); !created {
			t.Fatalf("first claim of %q not created", k)
		}
	}
	for _, k := range keys {
		if _, created := c.claim(k); created {
			t.Fatalf("second claim of %q created a duplicate", k)
		}
	}
	got := c.keys()
	if len(got) != len(keys) {
		t.Fatalf("keys() = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("keys() not sorted: %v", got)
		}
	}
}
