package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/policy"
)

// fiRequest is the fault site at request handling, fired after decode
// and inside the handler's recover scope: an injected error surfaces
// as a structured "internal" response, a panic exercises the recover
// path, a delay stalls the request without corrupting it.
var fiRequest = faultinject.Register("serve.request")

// Config tunes a Server.
type Config struct {
	// ModelVersion stamps the persisted cache; a cache written under a
	// different stamp is rejected on load. The CLI passes
	// xennuma.ModelVersion().
	ModelVersion string
	// CacheDir, when non-empty, is where LoadCache/SaveCache persist
	// the suite's computed cells across restarts.
	CacheDir string
	// Timeout bounds how long one request waits for its result; 0 means
	// no bound. A timed-out request gets a structured "timeout" error;
	// the computation itself cannot be cancelled and keeps running, so
	// a retry lands on warm cells.
	Timeout time.Duration
	// MaxFlights bounds the retained completed-flight response cache:
	// once more than MaxFlights completed flights are held, the least
	// recently replayed one is evicted (deterministic completion-order
	// LRU). 0 selects DefaultMaxFlights; in-flight leaders are never
	// evicted.
	MaxFlights int
	// MaxPending bounds concurrent leader computations: a request that
	// would start leader MaxPending+1 is shed with a structured
	// "unavailable" error and a retry hint instead of queueing without
	// bound. 0 means no shedding. Waiters coalescing onto an existing
	// flight are never shed.
	MaxPending int
}

// DefaultMaxFlights is the completed-flight cache bound when
// Config.MaxFlights is 0.
const DefaultMaxFlights = 512

// shedRetryMS is the deterministic retry hint attached to shed
// requests (no wall clock: the hint is a constant, not a measurement).
const shedRetryMS = 1000

// Server is a resident sweep service: one warm exp.Suite answering
// sweep/advise/policies/stats requests. Identical in-flight and past
// requests coalesce on flights, so a thundering herd computes each
// simulation cell exactly once and every member receives byte-identical
// payload bytes. Different requests compute concurrently: their drivers
// share the suite's worker pool, a cell two requests both need runs
// once, and a request whose cells are all cached never waits behind
// another request's cold cells.
type Server struct {
	suite *exp.Suite
	cfg   Config

	mu      sync.Mutex
	flights map[string]*flight
	// completed is the retained-flight replay order: completed
	// successful flights in completion order, most recently replayed
	// last. Eviction pops the front once the list exceeds MaxFlights.
	completed []string
	// pending counts active leader computations (for MaxPending
	// shedding).
	pending int
	// flightWG tracks leader compute goroutines; Drain waits for it
	// after the request sources (stdio loop, HTTP server) have stopped.
	flightWG sync.WaitGroup

	requests  atomic.Int64
	coalesced atomic.Int64
	failures  atomic.Int64
	restored  atomic.Int64
	evicted   atomic.Int64
	shed      atomic.Int64
	salvaged  atomic.Int64
}

// flight is one coalesced request computation: the leader fills result
// or errInfo and closes done; every waiter shares the bytes.
// Successful flights are retained (bounded by Config.MaxFlights, LRU
// by replay order), so repeated identical requests replay the exact
// payload without re-rendering; failed flights are dropped on
// completion so retries recompute.
type flight struct {
	done    chan struct{}
	result  json.RawMessage
	errInfo *ErrorInfo
}

// New returns a server over the given suite. The suite's Opt (seed,
// scale, pool) is fixed for the server's lifetime; every response is a
// deterministic function of it and the request.
func New(s *exp.Suite, cfg Config) *Server {
	return &Server{suite: s, cfg: cfg, flights: make(map[string]*flight)}
}

// maxFlights resolves the configured completed-flight bound.
func (s *Server) maxFlights() int {
	if s.cfg.MaxFlights > 0 {
		return s.cfg.MaxFlights
	}
	return DefaultMaxFlights
}

// Serve answers JSON-lines requests from r on w until r reaches EOF or
// ctx is cancelled (the CLI cancels on SIGTERM/SIGINT), then drains:
// every request already read gets its response before Serve returns.
// Responses are written one per line, matched by id; their order across
// concurrent requests is unspecified.
func (s *Server) Serve(ctx context.Context, r io.Reader, w io.Writer) error {
	out := &lineWriter{w: w}
	type item struct {
		line    []byte
		tooLong bool
	}
	items := make(chan item)
	go func() {
		defer close(items)
		br := bufio.NewReaderSize(r, 64<<10)
		for {
			line, tooLong, err := readLine(br, maxLineBytes)
			if tooLong || len(bytes.TrimSpace(line)) > 0 {
				select {
				case items <- item{line: line, tooLong: tooLong}:
				case <-ctx.Done():
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()

	var handlers sync.WaitGroup
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case it, ok := <-items:
			if !ok {
				break loop
			}
			if it.tooLong {
				out.write(marshalResponse("", nil,
					errorf("overflow", "request line exceeds %d bytes", maxLineBytes)))
				continue
			}
			handlers.Add(1)
			go func(line []byte) {
				defer handlers.Done()
				// Requests in flight when ctx is cancelled still finish:
				// drain is graceful, so the timeout context derives from
				// Background, not from ctx.
				out.write(s.HandleLine(context.Background(), line))
			}(it.line)
		}
	}
	handlers.Wait()
	return nil
}

// Drain blocks until every leader computation has finished. Call it
// after the request sources (Serve, the HTTP server) have stopped and
// before SaveCache, so the snapshot includes the tail of in-flight
// work.
func (s *Server) Drain() { s.flightWG.Wait() }

// HandleLine answers one raw request line with one response line (no
// trailing newline). It never panics: handler panics — including a
// failing simulation cell surfacing through the suite — become
// structured "internal" errors.
func (s *Server) HandleLine(ctx context.Context, line []byte) (resp []byte) {
	s.requests.Add(1)
	req, errInfo := decodeRequest(line)
	if errInfo != nil {
		s.failures.Add(1)
		return marshalResponse(req.ID, nil, errInfo)
	}
	defer func() {
		if p := recover(); p != nil {
			s.failures.Add(1)
			resp = marshalResponse(req.ID, nil, errorf("internal", "%v", p))
		}
	}()
	if err := fiRequest.Fire(); err != nil {
		s.failures.Add(1)
		return marshalResponse(req.ID, nil, errorf("internal", "injected fault: %v", err))
	}
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	result, errInfo := s.dispatch(ctx, req)
	if errInfo != nil {
		s.failures.Add(1)
	}
	return marshalResponse(req.ID, result, errInfo)
}

// dispatch routes one validated request: cheap ops compute inline,
// sweep/advise coalesce through the flight table.
func (s *Server) dispatch(ctx context.Context, req Request) (json.RawMessage, *ErrorInfo) {
	if !req.cacheable() {
		switch req.Op {
		case "policies":
			return policiesResult()
		case "health":
			return s.healthResult()
		default: // "stats" — normalize admits nothing else
			return s.statsResult()
		}
	}

	key := req.key()
	fl, leader, shed := s.claim(key)
	if shed {
		s.shed.Add(1)
		e := errorf("unavailable", "server at capacity (%d leader computations in flight); retry after backoff", s.cfg.MaxPending)
		e.RetryAfterMS = shedRetryMS
		return nil, e
	}
	if leader {
		s.flightWG.Add(1)
		go func() {
			defer s.flightWG.Done()
			defer s.finish(key, fl)
			defer close(fl.done)
			defer func() {
				if p := recover(); p != nil {
					fl.errInfo = errorf("internal", "%v", p)
				}
			}()
			fl.result, fl.errInfo = s.compute(req)
		}()
	} else {
		s.coalesced.Add(1)
	}

	// Prefer a completed flight over an expired context, so an
	// already-cached answer never reports timeout.
	select {
	case <-fl.done:
		return fl.result, fl.errInfo
	default:
	}
	select {
	case <-fl.done:
		return fl.result, fl.errInfo
	case <-ctx.Done():
		return nil, errorf("timeout", "request abandoned (%v); the computation continues and a retry will hit warm cells", ctx.Err())
	}
}

// claim returns the flight for key, creating it (leader=true) if
// absent. A replayed completed flight is touched to the back of the
// eviction order. When starting a new leader would exceed MaxPending,
// nothing is created and shed is true; waiters joining an existing
// flight are never shed.
func (s *Server) claim(key string) (fl *flight, leader, shed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fl, ok := s.flights[key]; ok {
		s.touch(key)
		return fl, false, false
	}
	if s.cfg.MaxPending > 0 && s.pending >= s.cfg.MaxPending {
		return nil, false, true
	}
	fl = &flight{done: make(chan struct{})}
	s.flights[key] = fl
	s.pending++
	return fl, true, false
}

// touch moves a retained completed flight to the back of the eviction
// order. In-flight keys are not in the list and are left alone.
func (s *Server) touch(key string) {
	for i, k := range s.completed {
		if k == key {
			copy(s.completed[i:], s.completed[i+1:])
			s.completed[len(s.completed)-1] = key
			return
		}
	}
}

// finish retires a leader computation. Failed flights are dropped —
// errors are reported to their waiters but never replayed from cache,
// so a retry recomputes. Successful flights join the replay cache,
// evicting the least recently replayed one past the MaxFlights bound
// (deterministic: completion order, touched on replay).
func (s *Server) finish(key string, fl *flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending--
	if fl.errInfo != nil {
		delete(s.flights, key)
		return
	}
	s.completed = append(s.completed, key)
	for max := s.maxFlights(); len(s.completed) > max; {
		victim := s.completed[0]
		s.completed = s.completed[1:]
		delete(s.flights, victim)
		s.evicted.Add(1)
	}
}

// compute runs one sweep/advise request's drivers on the suite and
// marshals its payload.
func (s *Server) compute(req Request) (json.RawMessage, *ErrorInfo) {
	tables := req.Tables(s.suite)
	payload := struct {
		Tables []TableJSON `json:"tables"`
	}{Tables: make([]TableJSON, 0, len(tables))}
	for _, t := range tables {
		payload.Tables = append(payload.Tables, toTableJSON(t, req.Markdown))
	}
	b, err := json.Marshal(payload)
	if err != nil {
		return nil, errorf("internal", "marshal tables: %v", err)
	}
	return b, nil
}

// policyInfo is one registry row of the policies op.
type policyInfo struct {
	Name          string   `json:"name"`
	Spelling      string   `json:"spelling"`
	Aliases       []string `json:"aliases,omitempty"`
	Abbrev        string   `json:"abbrev"`
	Parameterized bool     `json:"parameterized,omitempty"`
	Carrefour     bool     `json:"carrefour"`
	BootOnly      bool     `json:"boot_only,omitempty"`
	RuntimeOnly   bool     `json:"runtime_only,omitempty"`
	Native        bool     `json:"native"`
	Fault         string   `json:"fault"`
}

func policiesResult() (json.RawMessage, *ErrorInfo) {
	payload := struct {
		Policies []policyInfo `json:"policies"`
	}{}
	for _, d := range policy.List() {
		payload.Policies = append(payload.Policies, policyInfo{
			Name:          d.Name,
			Spelling:      d.DefaultSpelling(),
			Aliases:       d.Aliases,
			Abbrev:        d.Abbrev,
			Parameterized: d.Parameterized,
			Carrefour:     d.Carrefour,
			BootOnly:      d.BootOnly,
			RuntimeOnly:   d.RuntimeOnly,
			Native:        !d.BootOnly,
			Fault:         d.Fault,
		})
	}
	b, err := json.Marshal(payload)
	if err != nil {
		return nil, errorf("internal", "marshal policies: %v", err)
	}
	return b, nil
}

// Stats is the stats op's payload: the resident suite's and server's
// counters. No wall-clock fields — the service reports work, and the
// simulation's only clock is virtual.
type Stats struct {
	Workers        int    `json:"workers"`
	CellsComputed  int64  `json:"cells_computed"`
	CellsCached    int    `json:"cells_cached"`
	CellsRestored  int64  `json:"cells_restored"`
	TasksSubmitted int64  `json:"tasks_submitted"`
	TasksCompleted int64  `json:"tasks_completed"`
	PoolHits       uint64 `json:"pool_hits"`
	PoolMisses     uint64 `json:"pool_misses"`
	PoolDrops      uint64 `json:"pool_drops"`
	CellErrors     int64  `json:"cell_errors"`
	Requests       int64  `json:"requests"`
	Coalesced      int64  `json:"coalesced"`
	Failures       int64  `json:"failures"`
	FlightsEvicted int64  `json:"flights_evicted"`
	Shed           int64  `json:"shed"`
	ModelVersion   string `json:"model_version,omitempty"`
}

// Snapshot of the server's counters (also the final CLI summary line).
func (s *Server) Stats() Stats {
	hits, misses := s.suite.PoolStats()
	submitted, completed := s.suite.SchedulerStats()
	return Stats{
		Workers:        s.suite.Workers(),
		CellsComputed:  s.suite.CellsComputed(),
		CellsCached:    s.suite.CachedCells(),
		CellsRestored:  s.restored.Load(),
		TasksSubmitted: submitted,
		TasksCompleted: completed,
		PoolHits:       hits,
		PoolMisses:     misses,
		PoolDrops:      s.suite.PoolResetDrops(),
		CellErrors:     s.suite.CellErrors(),
		Requests:       s.requests.Load(),
		Coalesced:      s.coalesced.Load(),
		Failures:       s.failures.Load(),
		FlightsEvicted: s.evicted.Load(),
		Shed:           s.shed.Load(),
		ModelVersion:   s.cfg.ModelVersion,
	}
}

func (s *Server) statsResult() (json.RawMessage, *ErrorInfo) {
	b, err := json.Marshal(struct {
		Stats Stats `json:"stats"`
	}{s.Stats()})
	if err != nil {
		return nil, errorf("internal", "marshal stats: %v", err)
	}
	return b, nil
}

// Health is the health op's payload: liveness plus every degraded-mode
// counter. Status is "degraded" once any degradation event has
// occurred — a pool machine dropped, a cell errored, a cache salvage
// or a shed request — and "ok" otherwise. Degraded means the server
// survived something, not that it is unhealthy now: every counter
// counts a failure that was contained.
type Health struct {
	Status         string `json:"status"`
	PoolResetDrops uint64 `json:"pool_reset_drops"`
	CellErrors     int64  `json:"cell_errors"`
	CacheSalvaged  int64  `json:"cache_salvaged"`
	FlightsEvicted int64  `json:"flights_evicted"`
	Shed           int64  `json:"shed"`
	Failures       int64  `json:"failures"`
	FaultPlan      string `json:"fault_plan,omitempty"`
}

// Health snapshots the degraded-mode counters (also the health op's
// payload).
func (s *Server) Health() Health {
	h := Health{
		Status:         "ok",
		PoolResetDrops: s.suite.PoolResetDrops(),
		CellErrors:     s.suite.CellErrors(),
		CacheSalvaged:  s.salvaged.Load(),
		FlightsEvicted: s.evicted.Load(),
		Shed:           s.shed.Load(),
		Failures:       s.failures.Load(),
		FaultPlan:      faultinject.ActiveSpec(),
	}
	if h.PoolResetDrops > 0 || h.CellErrors > 0 || h.CacheSalvaged > 0 || h.Shed > 0 {
		h.Status = "degraded"
	}
	return h
}

func (s *Server) healthResult() (json.RawMessage, *ErrorInfo) {
	b, err := json.Marshal(struct {
		Health Health `json:"health"`
	}{s.Health()})
	if err != nil {
		return nil, errorf("internal", "marshal health: %v", err)
	}
	return b, nil
}

// Handler returns the HTTP face of the protocol: POST /rpc carries one
// request object per body and returns one response object. Error codes
// map to HTTP statuses (parse/bad_request/overflow → 400, timeout →
// 504, unavailable → 503 with Retry-After, internal → 500), but the
// body is always the same structured Response a stdio caller would
// read. Bodies are capped at the stdio line limit with
// http.MaxBytesReader, so an oversized POST also stops consuming the
// connection at the cap.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /rpc", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxLineBytes))
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				writeHTTP(w, marshalResponse("", nil,
					errorf("overflow", "request body exceeds %d bytes", maxLineBytes)))
				return
			}
			writeHTTP(w, marshalResponse("", nil, errorf("parse", "read body: %v", err)))
			return
		}
		writeHTTP(w, s.HandleLine(r.Context(), body))
	})
	return mux
}

// writeHTTP sends one response line with the status its error code
// implies.
func writeHTTP(w http.ResponseWriter, line []byte) {
	var resp Response
	status := http.StatusOK
	if err := json.Unmarshal(line, &resp); err == nil && resp.Error != nil {
		switch resp.Error.Code {
		case "timeout":
			status = http.StatusGatewayTimeout
		case "internal":
			status = http.StatusInternalServerError
		case "unavailable":
			status = http.StatusServiceUnavailable
			secs := (resp.Error.RetryAfterMS + 999) / 1000
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		default:
			status = http.StatusBadRequest
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(line, '\n'))
}

// lineWriter serializes response lines onto one writer: a single Write
// per response keeps lines atomic under concurrent handlers.
type lineWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lineWriter) write(line []byte) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.w.Write(append(line, '\n'))
}

// readLine reads one newline-terminated line of at most max bytes.
// Oversized lines are consumed to their newline and reported as
// tooLong with no content, so the stream stays framed and the server
// can answer with a structured overflow error instead of desyncing.
func readLine(br *bufio.Reader, max int) (line []byte, tooLong bool, err error) {
	for {
		frag, e := br.ReadSlice('\n')
		if !tooLong {
			if len(line)+len(frag) > max {
				tooLong, line = true, nil
			} else {
				line = append(line, frag...)
			}
		}
		if e == bufio.ErrBufferFull {
			continue
		}
		line = bytes.TrimRight(line, "\r\n")
		return line, tooLong, e
	}
}

// String renders the stats as the CLI's final summary line.
func (st Stats) String() string {
	return fmt.Sprintf("%d requests (%d coalesced, %d failed), %d cells computed, %d cached (%d restored), pool %d hits / %d misses",
		st.Requests, st.Coalesced, st.Failures, st.CellsComputed, st.CellsCached, st.CellsRestored, st.PoolHits, st.PoolMisses)
}
