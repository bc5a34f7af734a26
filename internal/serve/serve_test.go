package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/exp"
)

const testScale = 256

func newTestServer(t *testing.T, cfg Config) (*Server, *exp.Suite) {
	t.Helper()
	s := exp.NewSuiteParallel(testScale, 2)
	srv := New(s, cfg)
	t.Cleanup(srv.Drain)
	return srv, s
}

func handle(t *testing.T, srv *Server, line string) Response {
	t.Helper()
	raw := srv.HandleLine(context.Background(), []byte(line))
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, raw)
	}
	return resp
}

// sweepLine is the herd/determinism request: one single-app policy
// sweep, the cheapest request that exercises the full compute path.
const sweepLine = `{"id":"h","op":"sweep","app":"swaptions"}`

// TestThunderingHerd: many concurrent identical requests must coalesce
// into one computation — each simulation cell computed exactly once —
// and every member of the herd receives byte-identical response lines.
// Runs under -race in CI.
func TestThunderingHerd(t *testing.T) {
	// Reference: the same request served alone, to learn the cell count
	// and the expected bytes (servers are deterministic for a fixed
	// seed/scale, so A and B must agree byte-for-byte).
	refSrv, refSuite := newTestServer(t, Config{})
	ref := refSrv.HandleLine(context.Background(), []byte(sweepLine))
	refCells := refSuite.CellsComputed()
	if refCells == 0 {
		t.Fatal("reference sweep computed no cells")
	}

	srv, suite := newTestServer(t, Config{})
	const herd = 32
	responses := make([][]byte, herd)
	var wg sync.WaitGroup
	for i := range responses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i] = srv.HandleLine(context.Background(), []byte(sweepLine))
		}(i)
	}
	wg.Wait()

	for i, r := range responses {
		if !bytes.Equal(r, responses[0]) {
			t.Fatalf("herd member %d got different bytes:\n%s\nvs\n%s", i, r, responses[0])
		}
	}
	if !bytes.Equal(responses[0], ref) {
		t.Fatalf("herd response differs from the solo reference:\n%s\nvs\n%s", responses[0], ref)
	}
	if got := suite.CellsComputed(); got != refCells {
		t.Fatalf("herd computed %d cells, want exactly %d (each cell once)", got, refCells)
	}
	hits, misses := suite.PoolStats()
	if hits+misses != uint64(refCells) {
		t.Fatalf("pool leases %d+%d != %d cells: a cell ran more than once", hits, misses, refCells)
	}
	st := srv.Stats()
	if st.Requests != herd {
		t.Fatalf("requests = %d, want %d", st.Requests, herd)
	}
	if st.Coalesced != herd-1 {
		t.Fatalf("coalesced = %d, want %d (one leader)", st.Coalesced, herd-1)
	}

	// A second wave replays the retained flight: zero new cells.
	again := srv.HandleLine(context.Background(), []byte(sweepLine))
	if !bytes.Equal(again, responses[0]) {
		t.Fatal("replayed request returned different bytes")
	}
	if got := suite.CellsComputed(); got != refCells {
		t.Fatalf("replay recomputed cells: %d != %d", got, refCells)
	}
}

// TestServeStdio drives the full JSON-lines loop: interleaved valid,
// empty, malformed and oversized lines, responses matched by id, EOF
// drains cleanly.
func TestServeStdio(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	var in bytes.Buffer
	in.WriteString(`{"id":"a","op":"policies"}` + "\n")
	in.WriteString("\n")                                        // blank lines are skipped
	in.WriteString("   \r\n")                                   // whitespace too
	in.WriteString("not json\n")                                // parse error, service stays up
	in.WriteString(strings.Repeat("x", maxLineBytes+10) + "\n") // overflow
	in.WriteString(`{"id":"b","op":"stats"}` + "\n")
	in.WriteString(`{"id":"c","op":"stats"}`) // final line without newline

	var out syncBuffer
	if err := srv.Serve(context.Background(), &in, &out); err != nil {
		t.Fatalf("Serve: %v", err)
	}

	byID := map[string]Response{}
	var errorCodes []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var resp Response
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			t.Fatalf("bad response line %q: %v", line, err)
		}
		if resp.Error != nil {
			errorCodes = append(errorCodes, resp.Error.Code)
		}
		byID[resp.ID] = resp
	}
	for _, id := range []string{"a", "b", "c"} {
		if !byID[id].OK {
			t.Errorf("request %q failed: %+v", id, byID[id].Error)
		}
	}
	want := map[string]bool{"parse": true, "overflow": true}
	for _, c := range errorCodes {
		delete(want, c)
	}
	if len(want) != 0 {
		t.Errorf("missing error codes %v in %v", want, errorCodes)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer: Serve writes responses
// from concurrent handlers.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestBadRequests: every malformed or invalid request yields a
// structured error with the right code — never a panic, never an exit.
func TestBadRequests(t *testing.T) {
	srv, suite := newTestServer(t, Config{})
	cases := []struct {
		name, line, code string
	}{
		{"empty object", `{}`, "bad_request"},
		{"unknown op", `{"op":"frobnicate"}`, "bad_request"},
		{"unknown field", `{"op":"stats","bogus":1}`, "parse"},
		{"trailing garbage", `{"op":"stats"} extra`, "parse"},
		{"two objects", `{"op":"stats"}{"op":"stats"}`, "parse"},
		{"non-object", `[1,2,3]`, "parse"},
		{"null", `null`, "bad_request"}, // decodes to the zero request: missing op
		{"unknown app", `{"op":"sweep","app":"nope"}`, "bad_request"},
		{"app and apps", `{"op":"sweep","app":"cg.C","apps":["sp.C"]}`, "bad_request"},
		{"sweep without app", `{"op":"sweep"}`, "bad_request"},
		{"negative seeds", `{"op":"sweep","app":"cg.C","seeds":-1}`, "bad_request"},
		{"seeds over cap", fmt.Sprintf(`{"op":"sweep","app":"cg.C","seeds":%d}`, maxSeeds+1), "bad_request"},
		{"bind and seeds", `{"op":"sweep","app":"cg.C","bind":true,"seeds":2}`, "bad_request"},
		{"bind and apps", `{"op":"sweep","apps":["cg.C","sp.C"],"bind":true}`, "bad_request"},
		{"sweep with target", `{"op":"sweep","app":"cg.C","target":"xen"}`, "bad_request"},
		{"advise bad target", `{"op":"advise","target":"windows"}`, "bad_request"},
		{"advise with bind", `{"op":"advise","bind":true}`, "bad_request"},
		{"stats with params", `{"op":"stats","app":"cg.C"}`, "bad_request"},
		{"policies with md", `{"op":"policies","md":true}`, "bad_request"},
		{"long id", `{"op":"stats","id":"` + strings.Repeat("i", maxIDLen+1) + `"}`, "bad_request"},
	}
	for _, tc := range cases {
		resp := handle(t, srv, tc.line)
		if resp.OK || resp.Error == nil {
			t.Errorf("%s: want error, got ok:\n%s", tc.name, tc.line)
			continue
		}
		if resp.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q (%s)", tc.name, resp.Error.Code, tc.code, resp.Error.Message)
		}
	}
	if got := suite.CellsComputed(); got != 0 {
		t.Errorf("bad requests computed %d cells", got)
	}
}

// TestRequestTimeout: an expired context yields a structured timeout
// error, the computation finishes in the background, and the retry is
// served from the completed flight even though the context is still
// expired (completed work is preferred over the deadline).
func TestRequestTimeout(t *testing.T) {
	srv, _ := newTestServer(t, Config{Timeout: time.Nanosecond})
	resp := handle(t, srv, sweepLine)
	if resp.OK || resp.Error == nil || resp.Error.Code != "timeout" {
		t.Fatalf("want timeout error, got %+v", resp)
	}
	srv.Drain() // let the abandoned computation land in the flight
	resp = handle(t, srv, sweepLine)
	if !resp.OK {
		t.Fatalf("retry after drain failed: %+v", resp.Error)
	}
}

// TestHTTPHandler: the HTTP face carries the same protocol, one request
// per POST body, with error codes mapped to statuses.
func TestHTTPHandler(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/rpc", strings.NewReader(`{"id":"q","op":"stats"}`)))
	if rec.Code != 200 {
		t.Fatalf("stats status %d, want 200", rec.Code)
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !resp.OK || resp.ID != "q" {
		t.Fatalf("bad stats response: %v %s", err, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/rpc", strings.NewReader(`{"op":"nope"}`)))
	if rec.Code != 400 {
		t.Fatalf("bad-request status %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/rpc", nil))
	if rec.Code != 405 {
		t.Fatalf("GET status %d, want 405", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/rpc", strings.NewReader(strings.Repeat("x", maxLineBytes+10))))
	if rec.Code != 400 {
		t.Fatalf("overflow status %d, want 400", rec.Code)
	}

	// A request that outlives its deadline is a timeout (TestRequestTimeout).
	slow, _ := newTestServer(t, Config{Timeout: time.Nanosecond})
	rec = httptest.NewRecorder()
	slow.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/rpc", strings.NewReader(sweepLine)))
	slow.Drain()
	if rec.Code != 504 {
		t.Fatalf("timeout status %d, want 504: %s", rec.Code, rec.Body.String())
	}

	// A failed handler is an internal error (TestServeRequestFaultSite).
	installPlan(t, "serve.request:hit=1:action=error")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/rpc", strings.NewReader(`{"id":"f","op":"stats"}`)))
	if rec.Code != 500 {
		t.Fatalf("internal-error status %d, want 500: %s", rec.Code, rec.Body.String())
	}
}

// TestUnreadableRequestsCount: a request answered before it can be
// decoded — an oversized stdio line, an over-cap POST body, a body that
// fails to read — still counts as a request and a failure.
func TestUnreadableRequestsCount(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	var out syncBuffer
	if err := srv.Serve(context.Background(), strings.NewReader(strings.Repeat("x", maxLineBytes+10)+"\n"), &out); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	h := srv.Handler()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/rpc", strings.NewReader(strings.Repeat("x", maxLineBytes+10))))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/rpc", iotest.ErrReader(errors.New("connection reset"))))
	if st := srv.Stats(); st.Requests != 3 || st.Failures != 3 {
		t.Fatalf("requests/failures = %d/%d, want 3/3", st.Requests, st.Failures)
	}
}

// TestAdviseAndMarkdown: the advise op works end to end and md selects
// the Markdown rendering.
func TestAdviseAndMarkdown(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	resp := handle(t, srv, `{"id":"a","op":"advise","app":"swaptions","md":true}`)
	if !resp.OK {
		t.Fatalf("advise failed: %+v", resp.Error)
	}
	var result struct {
		Tables []TableJSON `json:"tables"`
	}
	if err := json.Unmarshal(resp.Result, &result); err != nil {
		t.Fatal(err)
	}
	if len(result.Tables) != 1 {
		t.Fatalf("advise returned %d tables, want 1", len(result.Tables))
	}
	tb := result.Tables[0]
	if tb.ID != "advise" || !strings.HasPrefix(tb.Text, "### advise:") {
		t.Fatalf("unexpected advise table: id=%q text=%q…", tb.ID, tb.Text[:40])
	}
	if len(tb.Rows) != 1 || tb.Rows[0][0] != "swaptions" {
		t.Fatalf("unexpected advise rows: %v", tb.Rows)
	}
}
