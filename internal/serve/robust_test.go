package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func installPlan(t *testing.T, spec string) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Install(p)
	t.Cleanup(func() { faultinject.Install(nil) })
	return p
}

const adviseLine = `{"id":"v","op":"advise","app":"swaptions"}`

// flightKeys snapshots the retained flight table (test-only).
func (s *Server) flightKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.flights))
	for k := range s.flights {
		keys = append(keys, k)
	}
	return keys
}

// TestFlightEviction pins the bounded response cache: past MaxFlights
// completed flights, the least recently replayed one is evicted (and
// counted), while replays of retained flights still return identical
// bytes — the suite's cell cache survives eviction, only the rendered
// payload is re-built.
func TestFlightEviction(t *testing.T) {
	srv, suite := newTestServer(t, Config{MaxFlights: 1})
	first := srv.HandleLine(context.Background(), []byte(sweepLine))
	srv.Drain()
	cells := suite.CellsComputed()
	srv.HandleLine(context.Background(), []byte(adviseLine))
	srv.Drain()

	if got := srv.Stats().FlightsEvicted; got != 1 {
		t.Fatalf("FlightsEvicted = %d, want 1", got)
	}
	if keys := srv.flightKeys(); len(keys) != 1 || !strings.HasPrefix(keys[0], "advise|") {
		t.Fatalf("retained flights = %v, want the advise flight only", keys)
	}
	// Replaying the evicted request re-renders from warm cells: same
	// bytes, no new simulation work beyond what advise added.
	cellsBefore := suite.CellsComputed()
	again := srv.HandleLine(context.Background(), []byte(sweepLine))
	srv.Drain()
	if !bytes.Equal(again, first) {
		t.Fatal("evicted flight replayed with different bytes")
	}
	if got := suite.CellsComputed(); got != cellsBefore {
		t.Fatalf("replay after eviction recomputed cells: %d != %d", got, cellsBefore)
	}
	_ = cells
}

// TestFlightTouchKeepsHotEntries: replaying a retained flight moves it
// to the back of the eviction order, so the cold one goes first.
func TestFlightTouchKeepsHotEntries(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxFlights: 2})
	ctx := context.Background()
	srv.HandleLine(ctx, []byte(sweepLine)) // A
	srv.Drain()
	srv.HandleLine(ctx, []byte(adviseLine)) // B
	srv.Drain()
	srv.HandleLine(ctx, []byte(sweepLine))                                            // touch A: order is now B, A
	srv.HandleLine(ctx, []byte(`{"op":"advise","app":"swaptions","target":"linux"}`)) // C evicts B
	srv.Drain()

	keys := srv.flightKeys()
	if len(keys) != 2 {
		t.Fatalf("retained %d flights, want 2: %v", len(keys), keys)
	}
	for _, k := range keys {
		if strings.HasPrefix(k, "advise|") && strings.Contains(k, "target=xen") {
			t.Fatalf("cold flight survived eviction over the touched one: %v", keys)
		}
	}
}

// TestFailedFlightNotRetained: a flight whose computation fails is
// reported to its waiters but dropped from the cache, so the retry
// recomputes and succeeds — one injected fault never poisons a key.
func TestFailedFlightNotRetained(t *testing.T) {
	ref, _ := newTestServer(t, Config{})
	want := ref.HandleLine(context.Background(), []byte(sweepLine))

	srv, suite := newTestServer(t, Config{})
	// Arm a block of hits so every cell execution during this request
	// faults: the suite's own errored-cell retry (evict + recompute)
	// is exhausted too, and the error surfaces to the flight.
	rules := make([]string, 40)
	for i := range rules {
		rules[i] = fmt.Sprintf("exp.cell:hit=%d:action=error", i+1)
	}
	installPlan(t, strings.Join(rules, ","))
	resp := handle(t, srv, sweepLine)
	if resp.OK || resp.Error == nil || resp.Error.Code != "internal" {
		t.Fatalf("faulted sweep = %+v, want internal error", resp)
	}
	srv.Drain()
	if keys := srv.flightKeys(); len(keys) != 0 {
		t.Fatalf("failed flight retained: %v", keys)
	}
	// Drain waits for flights, not for the cells a failed flight named:
	// one may still be running its faulted execution, and a retry that
	// names its key would join that failure. Disarm only once every
	// submitted cell has finished.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		submitted, completed := suite.SchedulerStats()
		if submitted == completed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cells still running 10s after the drain: %d submitted, %d completed", submitted, completed)
		}
	}
	faultinject.Install(nil)
	got := srv.HandleLine(context.Background(), []byte(sweepLine))
	if !bytes.Equal(got, want) {
		t.Fatalf("retry after failed flight diverged:\n%s\nvs\n%s", got, want)
	}
	if suite.CellErrors() == 0 {
		t.Fatal("no cell errors recorded")
	}
}

// TestLoadShedding: past MaxPending concurrent leader computations,
// new work is shed with a structured "unavailable" error carrying a
// retry hint — and a retry once the server drains succeeds. Waiters
// coalescing onto the pending flight are not shed.
func TestLoadShedding(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxPending: 1})
	installPlan(t, "exp.cell:hit=1:action=delay:delay=300ms")

	done := make(chan []byte, 1)
	go func() { done <- srv.HandleLine(context.Background(), []byte(sweepLine)) }()
	// Wait for the leader to claim its flight.
	for {
		srv.mu.Lock()
		pending := srv.pending
		srv.mu.Unlock()
		if pending == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	resp := handle(t, srv, adviseLine)
	if resp.OK || resp.Error == nil || resp.Error.Code != "unavailable" {
		t.Fatalf("overloaded advise = %+v, want unavailable", resp)
	}
	if resp.Error.RetryAfterMS != shedRetryMS {
		t.Fatalf("retry_after_ms = %d, want %d", resp.Error.RetryAfterMS, shedRetryMS)
	}
	// Joining the in-flight sweep coalesces instead of shedding.
	joined := handle(t, srv, sweepLine)
	if !joined.OK {
		t.Fatalf("coalescing waiter was shed: %+v", joined.Error)
	}
	<-done
	srv.Drain()
	if got := srv.Stats().Shed; got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}
	retry := handle(t, srv, adviseLine)
	if !retry.OK {
		t.Fatalf("retry after drain failed: %+v", retry.Error)
	}
}

// TestHealthOp: a fresh server reports ok with zeroed counters; after
// a contained failure it reports degraded with the counter that
// tripped, plus the active fault plan.
func TestHealthOp(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	var payload struct {
		Health Health `json:"health"`
	}
	resp := handle(t, srv, `{"id":"h1","op":"health"}`)
	if !resp.OK {
		t.Fatalf("health failed: %+v", resp.Error)
	}
	if err := json.Unmarshal(resp.Result, &payload); err != nil {
		t.Fatal(err)
	}
	if h := payload.Health; h.Status != "ok" || h.CellErrors != 0 || h.PoolResetDrops != 0 {
		t.Fatalf("fresh health = %+v, want ok/zeroed", h)
	}

	const spec = "exp.cell:hit=1:action=error"
	installPlan(t, spec)
	handle(t, srv, sweepLine)
	srv.Drain()
	resp = handle(t, srv, `{"op":"health"}`)
	if err := json.Unmarshal(resp.Result, &payload); err != nil {
		t.Fatal(err)
	}
	h := payload.Health
	if h.Status != "degraded" || h.CellErrors != 1 {
		t.Fatalf("post-fault health = %+v, want degraded with 1 cell error", h)
	}
	if h.FaultPlan != spec {
		t.Fatalf("fault_plan = %q, want %q", h.FaultPlan, spec)
	}
	if resp = handle(t, srv, `{"op":"health","app":"x"}`); resp.OK || resp.Error.Code != "bad_request" {
		t.Fatalf("health with params = %+v, want bad_request", resp)
	}
}

// TestServeRequestFaultSite: the serve.request site degrades exactly
// as specified — error becomes a structured internal response, panic
// is recovered by the handler, delay just stalls — and the server
// keeps serving afterwards.
func TestServeRequestFaultSite(t *testing.T) {
	for _, tc := range []struct{ name, spec string }{
		{"error", "serve.request:hit=1:action=error"},
		{"panic", "serve.request:hit=1:action=panic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := newTestServer(t, Config{})
			plan := installPlan(t, tc.spec)
			resp := handle(t, srv, `{"id":"f","op":"stats"}`)
			if resp.OK || resp.Error == nil || resp.Error.Code != "internal" {
				t.Fatalf("faulted request = %+v, want internal", resp)
			}
			if resp.ID != "f" {
				t.Fatalf("fault response lost the request id: %+v", resp)
			}
			if plan.Fired("serve.request") != 1 {
				t.Fatalf("fired %d, want 1", plan.Fired("serve.request"))
			}
			if next := handle(t, srv, `{"op":"stats"}`); !next.OK {
				t.Fatalf("server did not survive the fault: %+v", next.Error)
			}
		})
	}
	t.Run("delay", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{})
		installPlan(t, "serve.request:hit=1:action=delay:delay=10ms")
		if resp := handle(t, srv, `{"op":"stats"}`); !resp.OK {
			t.Fatalf("delayed request failed: %+v", resp.Error)
		}
	})
}

// TestHTTPUnavailable: the HTTP face maps "unavailable" to 503 with a
// Retry-After header derived from the structured hint.
func TestHTTPUnavailable(t *testing.T) {
	e := errorf("unavailable", "capacity")
	e.RetryAfterMS = shedRetryMS
	rec := httptest.NewRecorder()
	writeHTTP(rec, marshalResponse("x", nil, e))
	if rec.Code != 503 {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", got)
	}
}

// TestCacheSalvagePrefix pins the persistence degradation: a cache
// with a corrupted tail restores every cell before the first bad line
// and reports the loss, instead of throwing the whole file away.
func TestCacheSalvagePrefix(t *testing.T) {
	dir := t.TempDir()
	srvA, suiteA := persistServer(t, dir, "m")
	srvA.HandleLine(context.Background(), []byte(sweepLine))
	srvA.Drain()
	cells := int(suiteA.CellsComputed())
	if n, _, err := srvA.SaveCache(); err != nil || n != cells {
		t.Fatalf("SaveCache = %d, %v", n, err)
	}

	// Corrupt the last cell line's checksummed bytes (a flipped byte,
	// as bit rot or a torn write would leave).
	path := filepath.Join(dir, cacheFileName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	if len(lines) != cells+1 {
		t.Fatalf("cache has %d lines, want header + %d cells", len(lines), cells)
	}
	last := lines[len(lines)-1]
	last[bytes.IndexByte(last, ':')+2] ^= 0x01
	if err := os.WriteFile(path, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	srvB, suiteB := persistServer(t, dir, "m")
	n, err := srvB.LoadCache()
	if err == nil || !strings.Contains(err.Error(), "salvaged") {
		t.Fatalf("corrupt tail: err = %v, want salvage report", err)
	}
	if n != cells-1 {
		t.Fatalf("salvaged %d cells, want %d (all but the corrupt one)", n, cells-1)
	}
	if h := srvB.Health(); h.Status != "degraded" || h.CacheSalvaged != 1 {
		t.Fatalf("health after salvage = %+v", h)
	}
	// The salvaged prefix serves warm; only the lost cell recomputes.
	refResp := srvA.HandleLine(context.Background(), []byte(sweepLine))
	got := srvB.HandleLine(context.Background(), []byte(sweepLine))
	if !bytes.Equal(got, refResp) {
		t.Fatal("salvaged server diverged from the original")
	}
	if c := suiteB.CellsComputed(); c != 1 {
		t.Fatalf("salvaged server recomputed %d cells, want 1", c)
	}
}

// TestStaleTempIgnoredAndSwept simulates a crash between the cache's
// temp-file write and its rename: the orphaned temp file is never
// loaded, and the next SaveCache sweeps it.
func TestStaleTempIgnoredAndSwept(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, cacheFileName+".tmp1234")
	if err := os.WriteFile(stale, []byte("torn half-written cache"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, _ := persistServer(t, dir, "m")
	if n, err := srv.LoadCache(); n != 0 || err != nil {
		t.Fatalf("LoadCache with stale temp = %d, %v; want clean cold start", n, err)
	}
	srv.HandleLine(context.Background(), []byte(sweepLine))
	srv.Drain()
	if _, _, err := srv.SaveCache(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file not swept: %v", err)
	}
	srvB, suiteB := persistServer(t, dir, "m")
	if n, err := srvB.LoadCache(); err != nil || n == 0 {
		t.Fatalf("reload after sweep = %d, %v", n, err)
	}
	_ = suiteB
}

// TestCacheFaultSites: injected I/O faults at the persistence boundary
// surface as errors — a cold start for load, a skipped snapshot for
// save — and never kill the process.
func TestCacheFaultSites(t *testing.T) {
	dir := t.TempDir()
	srv, _ := persistServer(t, dir, "m")
	srv.HandleLine(context.Background(), []byte(sweepLine))
	srv.Drain()

	installPlan(t, "serve.cache.save:hit=1:action=error")
	if n, _, err := srv.SaveCache(); err == nil || n != 0 {
		t.Fatalf("faulted SaveCache = %d, %v; want error", n, err)
	}
	faultinject.Install(nil)
	if _, _, err := srv.SaveCache(); err != nil {
		t.Fatalf("retry SaveCache: %v", err)
	}

	srvB, _ := persistServer(t, dir, "m")
	installPlan(t, "serve.cache.load:hit=1:action=error")
	if n, err := srvB.LoadCache(); err == nil || n != 0 {
		t.Fatalf("faulted LoadCache = %d, %v; want error", n, err)
	}
	faultinject.Install(nil)
	if n, err := srvB.LoadCache(); err != nil || n == 0 {
		t.Fatalf("retry LoadCache = %d, %v", n, err)
	}
}
