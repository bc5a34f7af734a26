package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// coldDelay holds up the cold request's first cell in
// TestWarmRequestNotBlockedByColdOne. The warm request must answer
// within half of it, so its answer always lands while the cold one is
// still pending.
const coldDelay = 600 * time.Millisecond

// TestWarmRequestNotBlockedByColdOne: requests compute concurrently,
// with no batch lock between them. While a cold request's first cell
// is held up, a request whose cells are all cached still answers at
// once instead of queueing behind the cold request's batch.
func TestWarmRequestNotBlockedByColdOne(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	if resp := handle(t, srv, sweepLine); !resp.OK {
		t.Fatalf("warm-up sweep failed: %+v", resp.Error)
	}
	plan := installPlan(t, "exp.cell:hit=1:action=delay:delay="+coldDelay.String())

	cold := make(chan []byte, 1)
	go func() {
		cold <- srv.HandleLine(context.Background(), []byte(`{"id":"c","op":"sweep","app":"swaptions","bind":true}`))
	}()
	for plan.Fired("exp.cell") == 0 {
		time.Sleep(time.Millisecond)
	}

	// The warm sweep in Markdown is a new request (its own flight), but
	// every cell it names is cached.
	ctx, cancel := context.WithTimeout(context.Background(), coldDelay/2)
	defer cancel()
	var warm Response
	if err := json.Unmarshal(srv.HandleLine(ctx, []byte(`{"id":"m","op":"sweep","app":"swaptions","md":true}`)), &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.OK {
		t.Fatalf("cached request behind a cold one = %+v, want ok", warm.Error)
	}
	select {
	case <-cold:
		t.Fatal("the cold request finished first; the check is vacuous")
	default:
	}
	var resp Response
	if err := json.Unmarshal(<-cold, &resp); err != nil || !resp.OK {
		t.Fatalf("cold request = %+v (%v), want ok", resp.Error, err)
	}
}

// TestConcurrentRequestsMatchSerial: different requests arriving at
// once share the suite's worker pool and its cells. Each answer is
// byte-identical to the one a fresh server gives when the same
// requests arrive one at a time, and together they compute exactly as
// many cells: a cell two requests both need (the seed sweep's first
// seed is the plain sweep) still runs once. Runs under -race in CI.
func TestConcurrentRequestsMatchSerial(t *testing.T) {
	lines := []string{
		`{"id":"s","op":"sweep","app":"swaptions"}`,
		`{"id":"b","op":"sweep","app":"swaptions","bind":true}`,
		`{"id":"k","op":"sweep","app":"swaptions","seeds":2}`,
		`{"id":"l","op":"advise","app":"swaptions","target":"linux"}`,
	}
	serial, serialSuite := newTestServer(t, Config{})
	want := make([][]byte, len(lines))
	for i, l := range lines {
		want[i] = serial.HandleLine(context.Background(), []byte(l))
		var resp Response
		if err := json.Unmarshal(want[i], &resp); err != nil || !resp.OK {
			t.Fatalf("serial %s = %s", l, want[i])
		}
	}

	srv, suite := newTestServer(t, Config{})
	got := make([][]byte, len(lines))
	var wg sync.WaitGroup
	for i, l := range lines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = srv.HandleLine(context.Background(), []byte(l))
		}()
	}
	wg.Wait()
	for i, l := range lines {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("concurrent %s differs from the serial answer:\n%s\nvs\n%s", l, got[i], want[i])
		}
	}
	if got, want := suite.CellsComputed(), serialSuite.CellsComputed(); got != want {
		t.Errorf("concurrent requests computed %d cells, the serial server %d", got, want)
	}
}
