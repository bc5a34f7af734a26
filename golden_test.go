package xennuma

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current results")

// goldenResult is the serialized view of one engine.Result, flattened so
// the fixture captures every externally observable field bit-for-bit
// (floats survive a JSON round trip exactly: Go emits the shortest
// representation that round-trips).
type goldenResult struct {
	App              string
	Backend          string
	Completion       int64
	TimedOut         bool
	InitTime         int64
	Imbalance        float64
	InterconnectLoad float64
	Locality         float64
	Migrated         uint64
	TotalAccesses    float64
	RemoteAccesses   float64
}

func toGolden(r Result) goldenResult {
	return goldenResult{
		App:              r.App,
		Backend:          r.Backend,
		Completion:       int64(r.Completion),
		TimedOut:         r.TimedOut,
		InitTime:         int64(r.InitTime),
		Imbalance:        r.Imbalance,
		InterconnectLoad: r.InterconnectLoad,
		Locality:         r.Locality,
		Migrated:         r.Migrated,
		TotalAccesses:    r.Stats.TotalAccesses,
		RemoteAccesses:   r.Stats.RemoteAccesses,
	}
}

// TestGoldenEngineResults locks the engine's observable behaviour to a
// committed fixture: a multi-instance Xen pair and a native run, all
// with Carrefour on and migrating (facesim is master-heavy, so both
// heuristics fire), misleading bursts firing (psearchy and dc.B have
// Burstiness > 0) and disk I/O demand — every stream the epoch loop
// emits. Any change to the epoch loop that is
// meant to be a pure refactor must leave this fixture untouched; an
// intentional behaviour change must regenerate it with
// `go test -run TestGoldenEngineResults -update .` and justify the diff.
func TestGoldenEngineResults(t *testing.T) {
	o := Options{Scale: 64, Seed: 7, XenPlus: true}
	a, b, err := RunXenPair("facesim", MustPolicy("first-touch/carrefour"),
		"psearchy", MustPolicy("round-4k/carrefour"), Consolidated, false, o)
	if err != nil {
		t.Fatal(err)
	}
	native, err := RunLinux("dc.B", MustPolicy("first-touch/carrefour"),
		Options{Scale: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got := []goldenResult{toGolden(a), toGolden(b), toGolden(native)}

	path := filepath.Join("testdata", "golden_engine.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update): %v", err)
	}
	var want []goldenResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("result count = %d, golden has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("result %d (%s on %s) diverged from golden:\n got  %+v\n want %+v",
				i, got[i].App, got[i].Backend, got[i], want[i])
		}
	}
}

// TestGoldenDriftVsPreRowFold bounds every regeneration of the fixture
// that a float accumulation-order change forced: folding the stream
// table into per-thread node rows, then charging one summed row per
// identical-row thread group ((Σ units)·share instead of
// Σ(units·share)). Each moved sums at the last bit only. The fixture as
// the code before the first of them, the row fold, computes it is
// frozen as the origin, golden_engine_origin.json, and the live fixture
// must stay within a 1e-6 relative drift of it. A model change that
// alters the scenario recomputes the origin on that old code (the TLB
// model's removal did so), and the next reordering re-bounds against
// the same origin instead of freezing another snapshot.
func TestGoldenDriftVsPreRowFold(t *testing.T) {
	load := func(name string) []goldenResult {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var out []goldenResult
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	checkGoldenDrift(t, load("golden_engine.json"), load("golden_engine_origin.json"))
}

// checkGoldenDrift asserts every numeric field of cur stays within a
// 1e-6 relative drift of the frozen snapshot old, proving a fixture
// regeneration absorbed rounding noise and not a behaviour change
// (integer fields — completion times, migration counts — must not move
// at all by this bound, since their values are ≫ 1e6).
func checkGoldenDrift(t *testing.T, cur, old []goldenResult) {
	t.Helper()
	if len(cur) != len(old) {
		t.Fatalf("fixture has %d results, frozen snapshot has %d", len(cur), len(old))
	}
	const tol = 1e-6
	check := func(i int, field string, a, b float64) {
		t.Helper()
		if a == b {
			return
		}
		denom := math.Max(math.Abs(a), math.Abs(b))
		if drift := math.Abs(a-b) / denom; drift >= tol {
			t.Errorf("result %d: %s drifted by %.3g (%v vs snapshot %v), tolerance %g",
				i, field, drift, a, b, tol)
		}
	}
	for i := range cur {
		c, o := cur[i], old[i]
		if c.App != o.App || c.Backend != o.Backend || c.TimedOut != o.TimedOut {
			t.Fatalf("result %d: identity changed: %+v vs %+v", i, c, o)
		}
		check(i, "Completion", float64(c.Completion), float64(o.Completion))
		check(i, "InitTime", float64(c.InitTime), float64(o.InitTime))
		check(i, "Imbalance", c.Imbalance, o.Imbalance)
		check(i, "InterconnectLoad", c.InterconnectLoad, o.InterconnectLoad)
		check(i, "Locality", c.Locality, o.Locality)
		check(i, "Migrated", float64(c.Migrated), float64(o.Migrated))
		check(i, "TotalAccesses", c.TotalAccesses, o.TotalAccesses)
		check(i, "RemoteAccesses", c.RemoteAccesses, o.RemoteAccesses)
	}
}
