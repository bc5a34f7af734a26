package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	xennuma "repro"
	"repro/internal/advisor"
	"repro/internal/exp"
	"repro/internal/serve"
)

// workers is every suite's worker count. One worker keeps a unit's
// computation on one CPU: on the 2-vCPU host the baseline was recorded
// on, units with two busy workers swung by up to 40% between runs while
// the host was contended, against 11% with one (see README.md).
const workers = 1

// clients is the serve workload's closed-loop client count: two, so
// requests coalesce and queue behind each other's computation, or one on
// a one-CPU host, so the load never outnumbers the CPUs. Like the rest
// of the serve load, this is a choice, not a measurement of real callers.
var clients = min(2, runtime.NumCPU())

// workload is one benchmark workload. A unit is one fresh system (suite,
// warm-machine pool and, for serve, a server) driven once through the
// workload's load; a run repeats units until its time budget is spent.
type workload struct {
	kind     string   // "paper", "sweep" or "serve"
	scale    int      // machine scale divisor
	ids      []string // paper: the artefacts, in order
	apps     []string // sweep: the applications; serve: the request catalog's
	requests int      // serve: requests per session
	probe    int      // cells the traced run's probe samples
	reps     int      // probe runs per cell and variant
}

// largeApps are sweep-large's applications, five of the 12–16 GB
// footprint apps. At scale 32 their cells are dominated by machine
// construction and page materialisation rather than by the epoch loop,
// and together they keep one unit near four seconds.
var largeApps = []string{"wc", "belief", "bfs", "sssp", "pagerank"}

// workloads are the benchmark's workloads by name. README.md says why
// each exists.
var workloads = map[string]workload{
	"paper":       {kind: "paper", scale: 256, ids: exp.IDs(), probe: 16, reps: 5},
	"sweep-small": {kind: "sweep", scale: 256, apps: exp.Apps(), probe: 16, reps: 5},
	"sweep-large": {kind: "sweep", scale: 32, apps: largeApps, probe: 16, reps: 5},
	"serve":       {kind: "serve", scale: 256, apps: advisor.DefaultApps, requests: 100, probe: 16, reps: 5},
}

// unit is one fresh system and its load, ready to run once.
type unit struct {
	suite  *exp.Suite
	server *serve.Server
	load   [][]byte // serve: request lines in send order
}

// setup builds a unit: everything the workload needs before its first
// timed call.
func (w workload) setup(seed uint64) *unit {
	s := exp.NewSuiteParallel(w.scale, workers)
	s.Opt.Seed = seed
	u := &unit{suite: s}
	if w.kind == "serve" {
		u.server = serve.New(s, serve.Config{ModelVersion: xennuma.ModelVersion()})
		u.load = requestLoad(seed, w.requests, w.apps)
	}
	return u
}

// request is one call the bench made into the workload's entry point:
// an exp driver for the batch workloads, Server.HandleLine for serve.
type request struct {
	start, end time.Duration // since the unit started
	// class is "cold" when the request computed its answer. Otherwise a
	// batch driver call is "cached" (it only read computed cells) and a
	// serve request is "coalesced" or "replayed".
	class string
}

func (r request) latency() time.Duration { return r.end - r.start }

// outcome is what one unit produced.
type outcome struct {
	digest    string // sha256 of the unit's output
	cells     int64  // cells computed
	attempted int    // cells computed (batch) or requests sent (serve)
	failed    int    // errored cells or non-ok responses
	reqs      []request
	respBytes int // serve: response bytes received
}

// run drives the unit once. Spans go to tr, under parent.
func (w workload) run(u *unit, tr *tracer, parent int) (out outcome) {
	if w.kind == "serve" {
		return runServe(u, tr, parent)
	}
	h := sha256.New()
	t0 := time.Now()
	call := func(id int, name string, driver func() []*exp.Table) {
		cells := u.suite.CellsComputed()
		start := time.Since(t0)
		sp := tr.begin(parent, id, name)
		defer func() {
			class := "cached"
			if u.suite.CellsComputed() > cells {
				class = "cold"
			}
			out.reqs = append(out.reqs, request{start: start, end: time.Since(t0), class: class})
			tr.end(sp)
		}()
		defer func() {
			// A failing cell surfaces as a panic in the driver that reads
			// it; the unit carries on and the digest no longer matches.
			if p := recover(); p != nil {
				out.failed++
				fmt.Fprintf(h, "panic: %v\n", p)
			}
		}()
		tables := driver()
		rs := tr.begin(sp, id, "render")
		for _, t := range tables {
			io.WriteString(h, t.Render())
		}
		tr.end(rs)
	}
	if w.kind == "paper" {
		for i, id := range w.ids {
			drv := exp.ByID(id)
			call(i+1, "exp."+id, func() []*exp.Table { return []*exp.Table{drv(u.suite)} })
		}
	} else {
		call(1, "exp.SeedSweepApps", func() []*exp.Table { return exp.SeedSweepApps(u.suite, w.apps, 1) })
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	out.cells = u.suite.CellsComputed()
	out.attempted = int(out.cells)
	out.failed += int(u.suite.CellErrors())
	return out
}

// runServe sends the unit's load through a closed loop of `clients`
// clients: each sends its next request only once its previous reply has
// arrived, as callers of `xnuma serve` do.
func runServe(u *unit, tr *tracer, parent int) outcome {
	resps := make([][]byte, len(u.load))
	reqs := make([]request, len(u.load))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(u.load) {
					return
				}
				sp := tr.begin(parent, i+1, "serve.request")
				start := time.Since(t0)
				resps[i] = u.server.HandleLine(context.Background(), u.load[i])
				reqs[i] = request{start: start, end: time.Since(t0)}
				tr.end(sp)
			}
		}()
	}
	wg.Wait()

	out := outcome{cells: u.suite.CellsComputed(), attempted: len(u.load), reqs: reqs}
	classify(u.load, reqs)
	byLine := map[string][]byte{}
	for i, line := range u.load {
		var r struct {
			OK bool `json:"ok"`
		}
		if err := json.Unmarshal(resps[i], &r); err != nil || !r.OK {
			out.failed++
		}
		out.respBytes += len(resps[i])
		if prev, ok := byLine[string(line)]; ok && string(prev) != string(resps[i]) {
			out.failed++ // identical requests must get identical bytes
		}
		byLine[string(line)] = resps[i]
	}
	lines := make([]string, 0, len(byLine))
	for l := range byLine {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintf(h, "%s\t%s\n", l, byLine[l])
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out
}

// classify labels each request from its own send and finish times: an
// identical request that had already finished when it was sent makes it
// replayed, one still in flight makes it coalesced, and otherwise it is
// cold and computed its answer.
func classify(load [][]byte, reqs []request) {
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return reqs[order[a]].start < reqs[order[b]].start })
	seen := map[string][]int{}
	for _, i := range order {
		key := string(load[i])
		reqs[i].class = "cold"
		for _, j := range seen[key] {
			if reqs[j].end <= reqs[i].start {
				reqs[i].class = "replayed"
				break
			}
			reqs[i].class = "coalesced"
		}
		seen[key] = append(seen[key], i)
	}
}

// requestLoad makes a synthetic serve session's n request lines from the
// catalog of every application × {sweep, two-seed sweep, advise}. Each
// catalog request is sent once, so every seed computes the same cells;
// the rest of the session is drawn Zipf(s=1.3) over a seeded shuffle of
// the catalog, so the seed decides which few requests are hot. The whole
// sequence is then shuffled. The mix, the exponent and the session
// length are chosen, not derived from recorded `xnuma serve` traffic,
// which the repository has none of. The generator is written out here
// rather than taken from math/rand so the sequence cannot change with
// the Go release.
func requestLoad(seed uint64, n int, apps []string) [][]byte {
	var catalog [][]byte
	for _, app := range apps {
		catalog = append(catalog,
			fmt.Appendf(nil, `{"op":"sweep","app":%q}`, app),
			fmt.Appendf(nil, `{"op":"sweep","app":%q,"seeds":2}`, app),
			fmt.Appendf(nil, `{"op":"advise","apps":[%q]}`, app))
	}
	rng := splitmix(seed)
	shuffle(catalog, &rng)
	cdf := make([]float64, len(catalog))
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -1.3)
		cdf[k] = sum
	}
	out := append([][]byte(nil), catalog...)
	for len(out) < n {
		k := sort.SearchFloat64s(cdf, rng.float()*sum)
		out = append(out, catalog[min(k, len(catalog)-1)])
	}
	shuffle(out, &rng)
	return out
}

func shuffle[T any](s []T, rng *splitmix) {
	for i := len(s) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		s[i], s[j] = s[j], s[i]
	}
}

// splitmix is the SplitMix64 generator.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform draw from [0, 1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }
