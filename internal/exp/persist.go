package exp

import (
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Cache export/import: a suite's computed cells can be snapshotted into
// plain serializable records and restored into a fresh suite, so a
// resident service (internal/serve) survives restarts warm. Snapshots
// carry exactly the externally observable result fields — the ones the
// sweep/advise tables and the golden fixture read — so a response built
// from a restored cell is byte-identical to one built from the freshly
// computed cell. The RunStats accumulator's unexported internals
// (per-node access counts, epoch totals) are not captured: they are
// consumed during the run to derive the exported fields and are dead
// weight afterwards.
//
// Keys are the cache's own "seed=N/<key>" strings; callers pair a
// snapshot with a model-version stamp (xennuma.ModelVersion) so a cache
// written by a different engine is rejected rather than replayed.

// CellSnapshot is one computed cell: its cache key and one result per
// instance (two for pair cells).
type CellSnapshot struct {
	Key     string           `json:"key"`
	Results []ResultSnapshot `json:"results"`
}

// ResultSnapshot is the serializable view of one engine.Result. Floats
// survive the JSON round trip bit-for-bit (Go emits the shortest
// representation that parses back to the same value).
type ResultSnapshot struct {
	App              string  `json:"app"`
	Backend          string  `json:"backend"`
	Completion       int64   `json:"completion"`
	TimedOut         bool    `json:"timed_out,omitempty"`
	InitTime         int64   `json:"init_time"`
	Imbalance        float64 `json:"imbalance"`
	InterconnectLoad float64 `json:"interconnect_load"`
	Locality         float64 `json:"locality"`
	Migrated         uint64  `json:"migrated"`

	// The run-stats accumulator's exported totals.
	RemoteAccesses float64 `json:"remote_accesses"`
	TotalAccesses  float64 `json:"total_accesses"`
	PagesMigrated  uint64  `json:"pages_migrated"`
	Hypercalls     uint64  `json:"hypercalls"`
	HypercallNanos float64 `json:"hypercall_nanos"`
	IPIOverhead    float64 `json:"ipi_overhead"`
	IOSeconds      float64 `json:"io_seconds"`
}

func toSnapshot(r engine.Result) ResultSnapshot {
	s := ResultSnapshot{
		App:              r.App,
		Backend:          r.Backend,
		Completion:       int64(r.Completion),
		TimedOut:         r.TimedOut,
		InitTime:         int64(r.InitTime),
		Imbalance:        r.Imbalance,
		InterconnectLoad: r.InterconnectLoad,
		Locality:         r.Locality,
		Migrated:         r.Migrated,
	}
	if r.Stats != nil {
		s.RemoteAccesses = r.Stats.RemoteAccesses
		s.TotalAccesses = r.Stats.TotalAccesses
		s.PagesMigrated = r.Stats.PagesMigrated
		s.Hypercalls = r.Stats.Hypercalls
		s.HypercallNanos = r.Stats.HypercallNanos
		s.IPIOverhead = r.Stats.IPIOverhead
		s.IOSeconds = r.Stats.IOSeconds
	}
	return s
}

func (s ResultSnapshot) result() engine.Result {
	return engine.Result{
		App:              s.App,
		Backend:          s.Backend,
		Completion:       sim.Time(s.Completion),
		TimedOut:         s.TimedOut,
		InitTime:         sim.Time(s.InitTime),
		Imbalance:        s.Imbalance,
		InterconnectLoad: s.InterconnectLoad,
		Locality:         s.Locality,
		Migrated:         s.Migrated,
		Stats: &metrics.RunStats{
			RemoteAccesses: s.RemoteAccesses,
			TotalAccesses:  s.TotalAccesses,
			PagesMigrated:  s.PagesMigrated,
			Hypercalls:     s.Hypercalls,
			HypercallNanos: s.HypercallNanos,
			IPIOverhead:    s.IPIOverhead,
			IOSeconds:      s.IOSeconds,
		},
	}
}

// Snapshot exports every successfully computed cell, sorted by key.
// Cells still in flight and cells that failed are skipped — a snapshot
// taken while workers run is a consistent prefix, never a torn cell.
// Safe for concurrent use with the cell accessors.
func (s *Suite) Snapshot() []CellSnapshot {
	var out []CellSnapshot
	for _, key := range s.cache.keys() {
		cl, ok := s.cache.get(key)
		if !ok || !cl.resolved() || cl.err != nil {
			continue
		}
		snap := CellSnapshot{Key: key}
		for _, r := range cl.res {
			snap.Results = append(snap.Results, toSnapshot(r))
		}
		out = append(out, snap)
	}
	return out
}

// Restore seeds the cache with previously snapshotted cells and reports
// how many were installed. Keys already present (computed or in flight)
// and malformed records are skipped, and restored cells do not count as
// computed — CellsComputed still measures simulation work only, so warm
// restarts are observable as cache hits.
func (s *Suite) Restore(cells []CellSnapshot) int {
	n := 0
	for _, c := range cells {
		if c.Key == "" || len(c.Results) == 0 {
			continue
		}
		cl, created := s.cache.claim(c.Key)
		if !created {
			continue
		}
		for _, r := range c.Results {
			cl.res = append(cl.res, r.result())
		}
		close(cl.done)
		n++
	}
	return n
}

// CachedCells reports how many resolved, error-free cells the cache
// holds — computed plus restored (the singleflight's visible size, for
// the sweep service's stats endpoint).
func (s *Suite) CachedCells() int {
	n := 0
	for _, key := range s.cache.keys() {
		if cl, ok := s.cache.get(key); ok && cl.resolved() && cl.err == nil {
			n++
		}
	}
	return n
}

// SchedulerStats reports the scheduler's submitted and completed task
// counters: one task per distinct named cell, since a cell already
// claimed is never resubmitted. The completed counter may trail what
// the cells' readers already see; CellsComputed does not.
func (s *Suite) SchedulerStats() (submitted, completed int64) {
	return s.sched.Stats()
}
