package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	xennuma "repro"
)

// TestMain lets the test binary stand in for the program in the set-up
// processes an untraced run starts.
func TestMain(m *testing.M) {
	if os.Getenv(setupOnlyEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smoke shrinks a workload to well under a second: two applications,
// scale 256, 20 requests and a four-cell probe. The paper artefact kept
// is fig1, which has native and Xen cells.
func smoke(name string) workload {
	w := workloads[name]
	w.scale, w.probe, w.reps = 256, 4, 1
	switch w.kind {
	case "paper":
		w.ids = []string{"fig1"}
	case "sweep":
		w.apps = []string{"swaptions", "ep.D"}
	case "serve":
		w.apps, w.requests = []string{"swaptions", "ep.D"}, 20
	}
	return w
}

func names() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

type specMetric struct{ Name, Unit string }

// spec reads the metric lists of the repository's BENCHMARK.json.
func spec(t *testing.T) (endToEnd, perLayer []specMetric) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s.EndToEnd, s.PerLayer
}

// TestEveryMetricEmitted runs every workload untraced and traced at
// smoke size and checks each run emits exactly the metrics BENCHMARK.json
// names, with their units, and that the traced run's spans form a tree.
func TestEveryMetricEmitted(t *testing.T) {
	endToEnd, perLayer := spec(t)
	for _, name := range names() {
		t.Run(name, func(t *testing.T) {
			w := smoke(name)
			for _, traced := range []bool{false, true} {
				spansPath := ""
				want := endToEnd
				if traced {
					spansPath, want = filepath.Join(t.TempDir(), "spans.json"), perLayer
				}
				rec, err := measure(name, w, 1, 1, traced, spansPath, io.Discard)
				if err != nil || !rec.Correct || rec.Attempted == 0 || rec.Failed != 0 {
					t.Fatalf("traced=%v: err %v, correct %v, %d attempted, %d failed", traced, err, rec.Correct, rec.Attempted, rec.Failed)
				}
				if len(rec.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json names %d", traced, len(rec.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rec.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.Name, got, m.Unit)
					}
				}
				if traced {
					checkSpans(t, spansPath, w.kind)
				}
			}
		})
	}
}

func checkSpans(t *testing.T, path, kind string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Totals []spanTotal `json:"totals"`
		Spans  []span      `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if err := checkTree(doc.Spans); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range doc.Spans {
		seen[s.Name] = true
		if s.Parent > 0 && doc.Spans[s.Parent-1].Req != 0 && s.Req != doc.Spans[s.Parent-1].Req {
			t.Errorf("span %d (%s) has request %d under request %d", s.ID, s.Name, s.Req, doc.Spans[s.Parent-1].Req)
		}
	}
	want := map[string]string{"paper": "exp.fig1", "sweep": "exp.SeedSweepApps", "serve": "serve.request"}[kind]
	if !seen["workload"] || !seen["unit"] || !seen[want] {
		t.Errorf("spans %v lack workload, unit or %s", seen, want)
	}
	for _, tot := range doc.Totals {
		if tot.SelfMS < 0 || tot.SelfMS > tot.TotalMS+1e-9 {
			t.Errorf("%s: self %.3f ms outside [0, total %.3f ms]", tot.Name, tot.SelfMS, tot.TotalMS)
		}
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 50},
		{ID: 3, Parent: 1, Start: 40, End: 70}, // overlaps span 2
		{ID: 4, Parent: 3, Start: 45, End: 60},
	}
	if got, want := selfTimes(spans), []int64{40, 40, 15, 15}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	spans[3].End = 80 // child outlives its parent
	if checkTree(spans) == nil {
		t.Error("checkTree accepted a child outside its parent")
	}
}

// TestSeedDecidesInputs checks that the seed alone decides the request
// sequence and the probe sample.
func TestSeedDecidesInputs(t *testing.T) {
	apps := []string{"swaptions", "ep.D"}
	a, b, c := requestLoad(1, 20, apps), requestLoad(1, 20, apps), requestLoad(2, 20, apps)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("request sequence: same seed must repeat it and another seed change it")
	}
	if len(a) != 20 {
		t.Errorf("%d requests, want 20", len(a))
	}

	w := smoke("sweep-small")
	u := w.setup(1)
	w.run(u, nil, 0)
	cells := u.suite.Snapshot()
	p1, err := sampleCells(cells, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	p1again, _ := sampleCells(cells, 4, 1)
	p2, _ := sampleCells(cells, 4, 2)
	sample := func(cells []probeCell) []string {
		var out []string
		for _, c := range cells {
			out = append(out, c.key)
		}
		return out
	}
	if !reflect.DeepEqual(sample(p1), sample(p1again)) || reflect.DeepEqual(sample(p1), sample(p2)) {
		t.Errorf("probe sample: same seed must repeat it and another seed change it: %v %v %v",
			sample(p1), sample(p1again), sample(p2))
	}
	carrefour := 0
	for _, c := range p1 {
		if c.carrefour {
			carrefour++
		}
	}
	if carrefour != 2 {
		t.Errorf("probe sample has %d Carrefour cells of 4, want 2", carrefour)
	}
}

// TestProbeChecks runs the probe on sampled cells of every kind and
// checks its assertions hold: a NoPool rerun equals the workload's own
// result for the cell, pooled full runs equal NoPool runs, and runs cut
// at one epoch report TimedOut.
func TestProbeChecks(t *testing.T) {
	w := smoke("paper")
	w.ids = append(w.ids, "fig9") // pair cells
	u := w.setup(3)
	w.run(u, nil, 0)
	cells, err := sampleCells(u.suite.Snapshot(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[string]probeCell{}
	for _, c := range cells {
		byKind[c.kind] = c
	}
	if len(byKind) != 3 {
		t.Fatalf("cell kinds %v, want xen, linux and pair", byKind)
	}
	var sample []probeCell
	for _, kind := range []string{"linux", "pair", "xen"} {
		sample = append(sample, byKind[kind])
	}
	if err := probe(sample, w.scale, 1); err != nil {
		t.Fatal(err)
	}
	// Only Carrefour cells draw from their random stream, so the probe
	// must reject one of them rerun at another seed.
	rejected := false
	for _, c := range cells {
		if c.carrefour {
			c.seed++
			if rejected = probe([]probeCell{c}, w.scale, 1) != nil; rejected {
				break
			}
		}
	}
	if !rejected {
		t.Error("probe accepted every Carrefour cell rerun at another seed")
	}
	for _, c := range sample {
		if len(c.fresh) != 1 || len(c.pooled) != 1 || len(c.pooledFull) != 1 || c.epochs <= 1 {
			t.Errorf("%s: %d/%d/%d timings, %d epochs", c.key, len(c.fresh), len(c.pooled), len(c.pooledFull), c.epochs)
		}
	}
	if checkCut(&sample[0], []xennuma.Result{{TimedOut: false}}, nil) == nil {
		t.Error("checkCut accepted a cut run that did not time out")
	}
}

func TestDigestsCoverEverySeed(t *testing.T) {
	for _, name := range names() {
		for seed := uint64(0); seed < digestSeeds; seed++ {
			if d, err := goldenDigest(name, seed); err != nil || len(d) != 64 {
				t.Fatalf("%s seed %d: digest %q, err %v", name, seed, d, err)
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "serve", "-trace", "2"},
		{"-workload", "serve", "-seconds", "0"},
		{"-bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
