package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the bench's own calls into each layer:
// workload → unit → exp driver or serve.request → render. Spans stay in
// memory until the run writes them out. A nil tracer records nothing, so
// the untraced run pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	unit  *unit // the unit whose counters spans snapshot
}

// span is one timed call. IDs start at 1; Parent 0 marks the root. All
// spans of one request share Req.
type span struct {
	ID     int      `json:"id"`
	Parent int      `json:"parent"`
	Req    int      `json:"req,omitempty"`
	Name   string   `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Enter  counters `json:"enter"`
	Exit   counters `json:"exit"`
}

// counters is a snapshot of the layers' own counters, taken at a span's
// entry and exit.
type counters struct {
	Cells      int64  `json:"cells"`
	Tasks      int64  `json:"tasks"`
	PoolHits   uint64 `json:"pool_hits"`
	PoolMisses uint64 `json:"pool_misses"`
	Requests   int64  `json:"requests"`
	Coalesced  int64  `json:"coalesced"`
	HeapAlloc  uint64 `json:"heap_alloc_bytes"`
	GCCycles   uint64 `json:"gc_cycles"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// watch points later snapshots at u's suite and server.
func (t *tracer) watch(u *unit) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.unit = u
	t.mu.Unlock()
}

// begin opens a span and returns its id.
func (t *tracer) begin(parent, req int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0)), Enter: t.snapshot(),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = int64(time.Since(t.t0))
	sp.Exit = t.snapshot()
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

// snapshot reads the counters; t.mu must be held.
func (t *tracer) snapshot() counters {
	var c counters
	if u := t.unit; u != nil {
		c.Cells = u.suite.CellsComputed()
		c.Tasks, _ = u.suite.SchedulerStats()
		c.PoolHits, c.PoolMisses = u.suite.PoolStats()
		if u.server != nil {
			st := u.server.Stats()
			c.Requests, c.Coalesced = st.Requests, st.Coalesced
		}
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	c.HeapAlloc, c.GCCycles = s[0].Value.Uint64(), s[1].Value.Uint64()
	return c
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children's intervals cover. Concurrent children (two
// serve clients) are merged before subtracting.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans)+1)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			start, end := max(k.Start, reach), min(k.End, s.End)
			if end > start {
				covered += end - start
				reach = end
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// checkTree reports the first span whose parent is missing or whose
// interval leaves its parent's.
func checkTree(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent > len(spans) {
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// spanTotal sums the spans of one name.
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// write saves the spans, and each span name's total and self time, as
// JSON.
func (t *tracer) write(path string) error {
	self := selfTimes(t.spans)
	byName := map[string]*spanTotal{}
	var names []string
	for i, s := range t.spans {
		tot := byName[s.Name]
		if tot == nil {
			tot = &spanTotal{Name: s.Name}
			byName[s.Name] = tot
			names = append(names, s.Name)
		}
		tot.Count++
		tot.TotalMS += float64(s.End-s.Start) / 1e6
		tot.SelfMS += float64(self[i]) / 1e6
	}
	doc := struct {
		Totals []spanTotal `json:"totals"`
		Spans  []span      `json:"spans"`
	}{Spans: t.spans}
	for _, n := range names {
		doc.Totals = append(doc.Totals, *byName[n])
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
