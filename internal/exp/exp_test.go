package exp

import (
	"strings"
	"testing"

	xennuma "repro"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"row-one-cell", "1"}, {"r", "22"}},
		Notes:  []string{"a note"},
	}
	out := tab.Render()
	if !strings.Contains(out, "== x: demo ==") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "note: a note") {
		t.Fatal("missing note")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header, separator, two rows, note.
	if len(lines) != 6 {
		t.Fatalf("rendered %d lines: %q", len(lines), out)
	}
	// Columns align: the second column starts at the same offset in the
	// header and row lines.
	h, r := lines[1], lines[3]
	if strings.Index(h, "long-column") != strings.Index(r, "1") {
		t.Fatalf("columns misaligned:\n%s\n%s", h, r)
	}
}

func TestAbbrev(t *testing.T) {
	cases := map[string]string{
		"first-touch":           "FT",
		"first-touch/carrefour": "FT/C",
		"round-4k":              "R4K",
		"round-4k/carrefour":    "R4K/C",
		"round-1g":              "R1G",
		"other":                 "other",
	}
	for in, want := range cases {
		if got := Abbrev(in); got != want {
			t.Errorf("Abbrev(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIDsAndByID(t *testing.T) {
	ids := IDs()
	if len(ids) != 14 {
		t.Fatalf("IDs() = %d entries", len(ids))
	}
	for _, id := range ids {
		if ByID(id) == nil {
			t.Errorf("ByID(%q) = nil", id)
		}
	}
	if ByID("fig99") != nil {
		t.Fatal("unknown id resolved")
	}
}

// The cheap drivers (no simulation runs) must produce well-formed
// tables.
func TestCheapDrivers(t *testing.T) {
	s := NewSuite(64)
	for _, fn := range []func(*Suite) *Table{Table2, Table3, Fig5, IOTable, HypercallTable} {
		tab := fn(s)
		if tab.ID == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
			t.Fatalf("driver %s produced an empty table", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s: row width %d != header %d", tab.ID, len(row), len(tab.Header))
			}
		}
	}
}

func TestHypercallTableShape(t *testing.T) {
	tab := HypercallTable(nil)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Unbatched must be the most expensive design, partitioned the
	// cheapest.
	if !(tab.Rows[0][1] > tab.Rows[1][1]) { // string compare is fine: "NNNNns"
		t.Logf("rows: %v", tab.Rows)
	}
}

func TestSuiteCaching(t *testing.T) {
	s := NewSuite(256)
	r1 := s.Xen("swaptions", "round-4k", true).Result()
	if len(s.CacheKeys()) != 1 {
		t.Fatalf("cache keys = %v", s.CacheKeys())
	}
	r2 := s.Xen("swaptions", "round-4k", true).Result()
	if r1.Completion != r2.Completion {
		t.Fatal("cache returned a different result")
	}
	if len(s.CacheKeys()) != 1 {
		t.Fatal("cache grew on a hit")
	}
	// A different configuration is a different key.
	s.Xen("swaptions", "round-4k", false).Result()
	if len(s.CacheKeys()) != 2 {
		t.Fatal("miss did not populate the cache")
	}
}

// TestWarmNamingAllocatesOnlyItsKey: naming a cell that is already
// cached builds its cache key once and nothing else — no second key
// and no computation for a cell that exists — whichever accessor names
// it and whether or not it reads its seed.
func TestWarmNamingAllocatesOnlyItsKey(t *testing.T) {
	s := NewSuite(256)
	namings := []struct {
		name string
		cell func() *Cell
	}{
		{"Xen", func() *Cell { return s.Xen("swaptions", "round-4k", true) }},
		{"Xen, seeded", func() *Cell { return s.Xen("fluidanimate", "first-touch/carrefour", true) }},
		{"Linux", func() *Cell { return s.Linux("swaptions", "first-touch", true) }},
		{"XenPair", func() *Cell {
			return s.XenPair("swaptions", "round-4k", "x264", "first-touch", xennuma.Consolidated, false)
		}},
	}
	for _, n := range namings {
		n.cell().Results()
	}
	for _, n := range namings {
		if allocs := testing.AllocsPerRun(100, func() { n.cell() }); allocs > 1 {
			t.Errorf("%s: %v allocations per warm naming, want at most 1 (its cache key)", n.name, allocs)
		}
	}
	if len(s.CacheKeys()) != len(namings) {
		t.Fatalf("cache keys = %v, want %d", s.CacheKeys(), len(namings))
	}
}

func TestBestXenPicksMinimum(t *testing.T) {
	s := NewSuite(256)
	pol, best := s.xenSweep("swaptions").best()
	found := false
	for _, p := range XenPolicies {
		r := s.Xen("swaptions", p, true).Result()
		if r.Completion < best.Completion {
			t.Fatalf("best %q missed %s (%v < %v)", pol, p, r.Completion, best.Completion)
		}
		if p == pol {
			found = true
		}
	}
	if !found {
		t.Fatalf("BestXen returned unknown policy %q", pol)
	}
}

func TestPairConfigsCount(t *testing.T) {
	// The paper evaluates eleven two-VM configurations (§5.4.2).
	if len(Fig8Pairs)+len(Fig9Pairs) != 11 {
		t.Fatalf("pairs = %d + %d, want 11 total", len(Fig8Pairs), len(Fig9Pairs))
	}
}

func TestRenderMarkdown(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "with|pipe"}},
		Notes:  []string{"note"},
	}
	md := tab.RenderMarkdown()
	for _, want := range []string{"### x: demo", "| a | b |", "| --- | --- |", "with\\|pipe", "*note*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}
