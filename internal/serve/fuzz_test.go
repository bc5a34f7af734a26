package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exp"
)

// FuzzDecodeRequest hammers the protocol decoder: whatever bytes arrive
// on a line, the decoder must return either a normalized request or a
// structured error — never panic, never hang — and the error must
// marshal into a single well-formed response line (no embedded newline,
// so the JSON-lines framing survives hostile ids). Normalization is
// idempotent: an accepted request, marshaled and sent back, is accepted
// unchanged. CI runs a short -fuzztime smoke of this target on every
// push.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		// Valid requests, every op and parameter.
		`{"op":"stats"}`,
		`{"op":"policies"}`,
		`{"id":"1","op":"sweep","app":"cg.C"}`,
		`{"id":"2","op":"sweep","apps":["cg.C","sp.C"],"seeds":3,"md":true}`,
		`{"op":"sweep","app":"all"}`,
		`{"op":"sweep","app":"cg.C","bind":true}`,
		`{"op":"advise"}`,
		`{"op":"advise","apps":["facesim"],"target":"linux"}`,
		// Truncated and malformed.
		`{"op":"swe`,
		`{"op":"sweep","app":`,
		`{`,
		``,
		`null`,
		`true`,
		`42`,
		`"sweep"`,
		`[{"op":"stats"}]`,
		`{"op":"stats"}{"op":"stats"}`,
		`{"op":"stats"} trailing`,
		// Hostile: unknown fields, wrong types, deep nesting, control
		// characters and newlines in strings, huge numbers, long ids.
		`{"op":"stats","evil":{"a":[[[[[[[[{"b":1}]]]]]]]]}}`,
		`{"op":"sweep","app":123}`,
		`{"op":"sweep","app":"cg.C","seeds":"three"}`,
		`{"op":"sweep","app":"cg.C","seeds":99999999999999999999}`,
		`{"id":"a\nb","op":"stats"}`,
		`{"id":"` + strings.Repeat("x", 300) + `","op":"stats"}`,
		"{\"op\":\"\x00\"}",
		"{\"op\":\"stats\"}\r",
		`{"apps":["all"],"op":"sweep"}`,
		`{"op":"sweep","apps":[]}`,
		`{"op":"sweep","apps":["cg.C","nope"]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		req, errInfo := decodeRequest(line)
		if errInfo != nil {
			if errInfo.Code == "" || errInfo.Message == "" {
				t.Fatalf("unstructured error %+v for %q", errInfo, line)
			}
			resp := marshalResponse(req.ID, nil, errInfo)
			if bytes.IndexByte(resp, '\n') >= 0 {
				t.Fatalf("error response breaks line framing: %q", resp)
			}
			var decoded Response
			if err := json.Unmarshal(resp, &decoded); err != nil {
				t.Fatalf("error response is not JSON: %v: %q", err, resp)
			}
			if decoded.OK || decoded.Error == nil {
				t.Fatalf("error response not marked as error: %q", resp)
			}
			return
		}
		// Accepted requests decode deterministically: same line, same
		// normalized request, same coalescing key.
		req2, errInfo2 := decodeRequest(line)
		if errInfo2 != nil {
			t.Fatalf("second decode of %q errored: %+v", line, errInfo2)
		}
		if req.key() != req2.key() {
			t.Fatalf("unstable key for %q: %q vs %q", line, req.key(), req2.key())
		}
		sent, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshaling normalized %+v: %v", req, err)
		}
		req3, errInfo3 := decodeRequest(sent)
		if errInfo3 != nil {
			t.Fatalf("normalized request %s (from %q) rejected when sent back: %+v", sent, line, errInfo3)
		}
		if !reflect.DeepEqual(req3, req) || req3.key() != req.key() {
			t.Fatalf("normalized request %s changed when sent back: %+v vs %+v", sent, req3, req)
		}
		if len(req.Apps) == 0 && (req.Op == "sweep" || req.Op == "advise") {
			t.Fatalf("normalized %s request has no apps: %q", req.Op, line)
		}
		if bytes.IndexByte(marshalResponse(req.ID, nil, nil), '\n') >= 0 {
			t.Fatalf("ok response breaks line framing for id %q", req.ID)
		}
	})
}

// FuzzLoadCache hammers the cache-file loader: whatever bytes sit in
// cells.json, LoadCache must not panic and must report exactly the
// number of cells the suite then holds, and that state must survive
// SaveCache → LoadCache into a fresh server with no error and the same
// count. CI runs a short -fuzztime smoke of this target on every push.
func FuzzLoadCache(f *testing.F) {
	const model = "fuzz-model"
	saved := savedCache(f, model, []exp.CellSnapshot{
		{Key: "seed=1/xen/cg.C/first-touch/plus=true", Results: []exp.ResultSnapshot{
			{App: "cg.C", Backend: "xen/first-touch", Completion: 1_500_000_000, Imbalance: 12.5, Locality: 0.75},
		}},
		{Key: "seed=1/linux/ep.D/round-4k/mcs=true", Results: []exp.ResultSnapshot{
			{App: "ep.D", Backend: "linux/round-4K", Completion: 900_000_000, TimedOut: true, Migrated: 3},
		}},
		{Key: "seed=7/pair/cg.C/sp.C", Results: []exp.ResultSnapshot{
			{App: "cg.C", Completion: 2_000_000_000, RemoteAccesses: 1e9, TotalAccesses: 4e9},
			{App: "sp.C", Completion: 2_100_000_000, Hypercalls: 42, HypercallNanos: 1.25e6},
		}},
	})
	lastLine := bytes.LastIndexByte(saved[:len(saved)-1], '\n') + 1
	flipped := bytes.Clone(saved)
	digit := bytes.LastIndex(flipped, []byte(`"sum":"`)) + len(`"sum":"`)
	if flipped[digit] == '0' {
		flipped[digit] = '1'
	} else {
		flipped[digit] = '0'
	}
	stale := bytes.Replace(saved, []byte(model), []byte("stale-model"), 1)
	for _, seed := range [][]byte{
		saved,
		saved[:lastLine+(len(saved)-lastLine)/2], // truncated mid-line
		flipped,                                  // one checksum digit flipped
		stale,                                    // stale model stamp
		{},                                       // empty file
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, cacheFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, suite := persistServer(t, dir, model)
		n, _ := srv.LoadCache()
		if held := suite.CachedCells(); n != held {
			t.Fatalf("LoadCache reported %d cells, the suite holds %d", n, held)
		}
		if written, _, err := srv.SaveCache(); err != nil || written != n {
			t.Fatalf("SaveCache = %d, %v; want %d", written, err, n)
		}
		srv2, suite2 := persistServer(t, dir, model)
		if n2, err := srv2.LoadCache(); err != nil || n2 != n || suite2.CachedCells() != n {
			t.Fatalf("reload = %d, %v (suite holds %d); want %d, nil", n2, err, suite2.CachedCells(), n)
		}
	})
}

// savedCache returns the cache file SaveCache writes for cells.
func savedCache(tb testing.TB, model string, cells []exp.CellSnapshot) []byte {
	tb.Helper()
	dir := tb.TempDir()
	srv, suite := persistServer(tb, dir, model)
	if n := suite.Restore(cells); n != len(cells) {
		tb.Fatalf("restored %d of %d hand-made cells", n, len(cells))
	}
	if _, _, err := srv.SaveCache(); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, cacheFileName))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
