// Command bench is the repository's benchmark. One run drives one
// workload through the public entry points of the simulator (the exp
// drivers, the serve request handler and the root facade) for a wall
// clock budget, checks every output against committed digests and
// prints one JSON record of metrics as the last line of its output:
//
//	go run . -workload sweep-small -seed 3 -seconds 25 -trace 0
//
// With -trace 1 the run repeats the workload with spans recorded around
// every call, then probes single cells, and reports per-layer metrics
// instead of end-to-end ones. README.md describes the workloads, the
// metrics and the trace.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/exp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper, sweep-small, sweep-large or serve")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 25, "wall-clock seconds to measure for")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spans := fs.String("spans", "", "traced run: write the spans as JSON to this file")
	update := fs.Bool("update", false, "recompute testdata/digests.json (run from the bench directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *update {
		if err := updateDigests(stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: need -workload paper|sweep-small|sweep-large|serve, -trace 0|1 and -seconds > 0\n")
		return 2
	}
	want, err := goldenDigest(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if os.Getenv(setupOnlyEnv) != "" {
		w.setup(*seed)
		return 0
	}
	budget := time.Duration(*seconds * float64(time.Second))
	rec, err := measure(*name, w, *seed, budget, *trace == 1, *spans, stderr)
	switch {
	case err != nil:
	case !rec.Correct:
		err = fmt.Errorf("%s seed %d: %d of %d operations failed or repeated units disagreed", *name, *seed, rec.Failed, rec.Attempted)
	case want == "":
		fmt.Fprintf(stderr, "bench: no committed digest for %s seed %d; checked only that repeated units agree\n", *name, *seed)
	case rec.digest != want:
		err = fmt.Errorf("%s seed %d: output digest %s, want %s", *name, *seed, rec.digest, want)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		rec.Correct = false
	}
	b, _ := json.Marshal(rec)
	fmt.Fprintln(stdout, string(b))
	if !rec.Correct {
		return 1
	}
	return 0
}

// record is the run's result line.
type record struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	digest    string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// unitStats is one unit's measurements.
type unitStats struct {
	outcome
	wall                time.Duration
	cellSet             []exp.CellSnapshot // traced: the cells the unit computed
	alloc, mallocs, sys uint64
	gcCycles            uint32
	gcPause             time.Duration
	tasks, errs         int64
	hits, misses, drops uint64
	epochs, migrated    uint64
	coalesced, evicted  int64
	shed                int64
}

// measure runs units of w until budget is spent. Untraced, it reports
// the end-to-end metrics. Traced, it spends half the budget untraced and
// half traced, probes cells, and reports per-layer metrics.
func measure(name string, w workload, seed uint64, budget time.Duration, traced bool, spansPath string, log io.Writer) (record, error) {
	rec := record{Correct: true, Metrics: map[string]metric{}}
	if !traced {
		setups, err := setupTimes(name, seed)
		if err != nil {
			return rec, err
		}
		rec.Metrics["setup_s"] = metric{median(setups), "s"}
		units := repeat(w, seed, budget, nil, 0, log)
		rec.addAll(units)
		rec.Metrics["alloc_mb"] = metric{median(column(units, func(u unitStats) float64 { return float64(u.alloc) / 1e6 })), "MB"}
		rec.Metrics["cells"] = metric{median(column(units, func(u unitStats) float64 { return float64(u.cells) })), "count"}
		// Wall-clock time is not an end-to-end metric (README.md says
		// why), but baseline.py records it from this line.
		fmt.Fprintf(log, "bench: median unit wall %.3f ms over %d units\n", medianWall(units), len(units))
		return rec, nil
	}

	plain := repeat(w, seed, budget/2, nil, 0, log)
	tr := newTracer()
	root := tr.begin(0, 0, "workload")
	units := repeat(w, seed, budget/2, tr, root, log)
	tr.end(root)
	rec.addAll(plain)
	rec.addAll(units)
	if err := checkTree(tr.spans); err != nil {
		return rec, err
	}
	layerMetrics(units, rec.Metrics)
	rec.Metrics["unit.wall_ms"] = metric{medianWall(plain), "ms"}
	rec.Metrics["trace.overhead_ms"] = metric{medianWall(units) - medianWall(plain), "ms"}

	cells, err := sampleCells(units[len(units)-1].cellSet, w.probe, seed)
	if err != nil {
		return rec, err
	}
	if err := probe(cells, w.scale, w.reps); err != nil {
		return rec, err
	}
	probeMetrics(cells, rec.Metrics)
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// add counts one unit's outcome into the record. Every unit of a run has
// the same inputs, so all must produce the first unit's output.
func (rec *record) add(o outcome) {
	if rec.digest == "" {
		rec.digest = o.digest
	}
	rec.Attempted += o.attempted
	rec.Failed += o.failed
	if o.digest != rec.digest || o.failed > 0 {
		rec.Correct = false
	}
}

func (rec *record) addAll(units []unitStats) {
	for _, u := range units {
		rec.add(u.outcome)
	}
}

// setupOnlyEnv, when set in the environment, makes the program set up
// the workload's unit and exit before its first timed call.
const setupOnlyEnv = "BENCH_SETUP_ONLY"

// setupRuns is how many set-up processes an untraced run times; setup_s
// is their median.
const setupRuns = 21

// setupTimes starts setupRuns fresh copies of this program that each
// set up one unit of the named workload and exit, and returns how long
// each lived, in seconds: process start, package initialisation, flag
// parsing, the digest lookup and the unit's construction (suite, and for
// serve the server, ModelVersion and the request load).
func setupTimes(name string, seed uint64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []float64
	for range setupRuns {
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10))
		cmd.Env = append(os.Environ(), setupOnlyEnv+"=1")
		t := time.Now()
		out, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %v: %s", err, out)
		}
		times = append(times, time.Since(t).Seconds())
	}
	return times, nil
}

// repeat runs fresh units of w until budget is spent, always at least
// one, and never starting one that the mean unit so far says would end
// past the budget.
func repeat(w workload, seed uint64, budget time.Duration, tr *tracer, parent int, log io.Writer) []unitStats {
	var units []unitStats
	var spent time.Duration
	for len(units) == 0 || spent+spent/time.Duration(len(units)) <= budget {
		t0 := time.Now()
		u := w.setup(seed)
		var st unitStats
		tr.watch(u)
		sp := tr.begin(parent, 0, "unit")
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t1 := time.Now()
		st.outcome = w.run(u, tr, sp)
		st.wall = time.Since(t1)
		runtime.ReadMemStats(&m1)
		tr.end(sp)
		st.alloc, st.mallocs, st.sys = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs, m1.Sys
		st.gcCycles, st.gcPause = m1.NumGC-m0.NumGC, time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)
		if tr != nil {
			st.layerCounters(u)
		}
		units = append(units, st)
		spent += time.Since(t0)
		fmt.Fprintf(log, "bench: unit %d: wall %.3f s, %.1f MB allocated, %d attempted, %d failed\n",
			len(units), st.wall.Seconds(), float64(st.alloc)/1e6, st.attempted, st.failed)
	}
	return units
}

// layerCounters reads the unit's layer counters after it ran.
func (st *unitStats) layerCounters(u *unit) {
	s := u.suite
	st.errs = s.CellErrors()
	st.tasks, _ = s.SchedulerStats()
	st.hits, st.misses = s.PoolStats()
	st.drops = s.PoolResetDrops()
	st.cellSet = s.Snapshot()
	for _, c := range st.cellSet {
		var done int64
		for _, r := range c.Results {
			done = max(done, r.Completion)
			st.migrated += r.Migrated
		}
		st.epochs += uint64((done + int64(epoch) - 1) / int64(epoch))
	}
	if u.server != nil {
		ss := u.server.Stats()
		st.coalesced, st.evicted, st.shed = ss.Coalesced, ss.FlightsEvicted, ss.Shed
	}
}

// layerMetrics reports each layer's per-unit counts as medians over the
// traced units, and request latencies over every traced request.
func layerMetrics(units []unitStats, m map[string]metric) {
	med := func(f func(u unitStats) float64) float64 { return median(column(units, f)) }
	count := func(name string, f func(u unitStats) float64) { m[name] = metric{med(f), "count"} }

	count("exp.cells_computed", func(u unitStats) float64 { return float64(u.cells) })
	m["exp.cells_per_s"] = metric{med(func(u unitStats) float64 { return float64(u.cells) / u.wall.Seconds() }), "1/s"}
	count("exp.cell_errors", func(u unitStats) float64 { return float64(u.errs) })
	count("exp.tasks_submitted", func(u unitStats) float64 { return float64(u.tasks) })

	count("xennuma.pool_hits", func(u unitStats) float64 { return float64(u.hits) })
	count("xennuma.pool_misses", func(u unitStats) float64 { return float64(u.misses) })
	m["xennuma.pool_hit_ratio"] = metric{med(func(u unitStats) float64 {
		return ratio(float64(u.hits), float64(u.hits+u.misses))
	}), "ratio"}
	count("xennuma.pool_reset_drops", func(u unitStats) float64 { return float64(u.drops) })

	count("engine.sim_epochs", func(u unitStats) float64 { return float64(u.epochs) })
	count("engine.pages_migrated", func(u unitStats) float64 { return float64(u.migrated) })

	var lat, cold []float64
	for _, u := range units {
		for _, r := range u.reqs {
			lat = append(lat, ms(r.latency()))
			if r.class == "cold" {
				cold = append(cold, ms(r.latency()))
			}
		}
	}
	m["req.p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	m["req.p95_ms"] = metric{quantile(lat, 0.95), "ms"}
	m["req.cold_p50_ms"] = metric{quantile(cold, 0.50), "ms"}

	count("serve.coalesced", func(u unitStats) float64 { return float64(u.coalesced) })
	count("serve.replayed", func(u unitStats) float64 {
		n := 0
		for _, r := range u.reqs {
			if r.class == "replayed" {
				n++
			}
		}
		return float64(n)
	})
	m["serve.coalesced_ratio"] = metric{med(func(u unitStats) float64 {
		return ratio(float64(u.coalesced), float64(len(u.reqs)))
	}), "ratio"}
	m["serve.response_kb"] = metric{med(func(u unitStats) float64 { return float64(u.respBytes) / 1e3 }), "KB"}
	count("serve.flights_evicted", func(u unitStats) float64 { return float64(u.evicted) })
	count("serve.shed", func(u unitStats) float64 { return float64(u.shed) })

	count("runtime.gc_cycles", func(u unitStats) float64 { return float64(u.gcCycles) })
	m["runtime.gc_pause_ms"] = metric{med(func(u unitStats) float64 { return ms(u.gcPause) }), "ms"}
	count("runtime.mallocs", func(u unitStats) float64 { return float64(u.mallocs) })
	peak := 0.0
	for _, u := range units {
		peak = max(peak, float64(u.sys)/1e6)
	}
	m["runtime.peak_sys_mb"] = metric{peak, "MB"}
}

func medianWall(units []unitStats) float64 {
	return median(column(units, func(u unitStats) float64 { return ms(u.wall) }))
}

func column(units []unitStats, f func(unitStats) float64) []float64 {
	out := make([]float64, len(units))
	for i, u := range units {
		out[i] = f(u)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// digestsJSON holds the expected output digest of every workload at a
// range of seeds: workload → seed → sha256.
//
//go:embed testdata/digests.json
var digestsJSON []byte

// digestSeeds is how many seeds, from 0 up, -update records.
const digestSeeds = 32

// goldenDigest returns the committed digest for (workload, seed), or ""
// when none was recorded.
func goldenDigest(name string, seed uint64) (string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", fmt.Errorf("testdata/digests.json: %v", err)
	}
	return all[name][strconv.FormatUint(seed, 10)], nil
}

// updateDigests recomputes every workload's digest at each of the
// digestSeeds seeds from one unit and rewrites testdata/digests.json.
func updateDigests(log io.Writer) error {
	if _, err := os.Stat("testdata"); errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("run -update from the bench directory")
	}
	all := map[string]map[string]string{}
	for name, w := range workloads {
		all[name] = map[string]string{}
		for seed := uint64(0); seed < digestSeeds; seed++ {
			out := w.run(w.setup(seed), nil, 0)
			if out.failed > 0 {
				return fmt.Errorf("%s seed %d: %d failed", name, seed, out.failed)
			}
			all[name][strconv.FormatUint(seed, 10)] = out.digest
			fmt.Fprintf(log, "%s seed %d: %s\n", name, seed, out.digest)
		}
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile("testdata/digests.json", append(b, '\n'), 0o644)
}
