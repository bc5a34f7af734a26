package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

// persistServer builds a server with its own fresh suite over dir.
func persistServer(t testing.TB, dir, model string) (*Server, *exp.Suite) {
	t.Helper()
	s := exp.NewSuiteParallel(testScale, 2)
	srv := New(s, Config{CacheDir: dir, ModelVersion: model})
	t.Cleanup(srv.Drain)
	return srv, s
}

// TestCachePersistenceRoundTrip pins the warm-restart contract: a
// server restarted over the same cache dir serves byte-identical
// results without recomputing a single cell, and a model-version flip
// rejects the stale cache and recomputes from scratch.
func TestCachePersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// Cold server: compute, then persist on the way out (as the CLI
	// does after drain).
	srvA, suiteA := persistServer(t, dir, "model-1")
	respA := srvA.HandleLine(context.Background(), []byte(sweepLine))
	cells := suiteA.CellsComputed()
	if cells == 0 {
		t.Fatal("cold sweep computed no cells")
	}
	srvA.Drain()
	if n, _, err := srvA.SaveCache(); err != nil || n != int(cells) {
		t.Fatalf("SaveCache = %d, %v; want %d cells", n, err, cells)
	}

	// Warm restart: every cell restored, zero computed, same bytes.
	srvB, suiteB := persistServer(t, dir, "model-1")
	if n, err := srvB.LoadCache(); err != nil || n != int(cells) {
		t.Fatalf("LoadCache = %d, %v; want %d cells", n, err, cells)
	}
	respB := srvB.HandleLine(context.Background(), []byte(sweepLine))
	if !bytes.Equal(respA, respB) {
		t.Fatalf("warm response differs from cold:\n%s\nvs\n%s", respA, respB)
	}
	if got := suiteB.CellsComputed(); got != 0 {
		t.Fatalf("warm restart recomputed %d cells", got)
	}
	if st := srvB.Stats(); st.CellsRestored != cells {
		t.Fatalf("stats report %d restored cells, want %d", st.CellsRestored, cells)
	}

	// Model flip: the stale cache is rejected, everything recomputes,
	// and the results still match bit-for-bit (the model did not
	// actually change — only its stamp did).
	srvC, suiteC := persistServer(t, dir, "model-2")
	n, err := srvC.LoadCache()
	if n != 0 || err == nil || !strings.Contains(err.Error(), "model") {
		t.Fatalf("stale cache not rejected: n=%d err=%v", n, err)
	}
	respC := srvC.HandleLine(context.Background(), []byte(sweepLine))
	if got := suiteC.CellsComputed(); got != cells {
		t.Fatalf("after rejection computed %d cells, want %d", got, cells)
	}
	if !bytes.Equal(respA, respC) {
		t.Fatal("recomputed response differs from the original")
	}

	// The next save overwrites the stale file under the new stamp.
	if _, _, err := srvC.SaveCache(); err != nil {
		t.Fatal(err)
	}
	srvD, suiteD := persistServer(t, dir, "model-2")
	if n, err := srvD.LoadCache(); err != nil || n != int(cells) {
		t.Fatalf("reload after restamp = %d, %v; want %d", n, err, cells)
	}
	srvD.HandleLine(context.Background(), []byte(sweepLine))
	if got := suiteD.CellsComputed(); got != 0 {
		t.Fatalf("restamped warm start recomputed %d cells", got)
	}
}

// TestOlderCacheFormatIsStale: a format-2 file keyed every cell under
// its suite's seed, names this format gives only to cells that read
// their seed, so it installs nothing and is reported stale, not
// corrupt. The next save writes the current format, which reloads
// every cell.
func TestOlderCacheFormatIsStale(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, cacheFileName)
	srvA, _ := persistServer(t, dir, "m")
	srvA.HandleLine(context.Background(), []byte(sweepLine))
	srvA.Drain()
	if _, _, err := srvA.SaveCache(); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, cellLines, _ := bytes.Cut(saved, []byte("\n"))
	if err := os.WriteFile(path, append([]byte(`{"format":2,"model":"m"}`+"\n"), cellLines...), 0o644); err != nil {
		t.Fatal(err)
	}

	srvB, suiteB := persistServer(t, dir, "m")
	n, err := srvB.LoadCache()
	if n != 0 || err == nil || !strings.Contains(err.Error(), "stale cache") ||
		!strings.Contains(err.Error(), "written by cache format 2; recomputing") {
		t.Fatalf("format-2 LoadCache = %d, %v; want 0 cells and a stale-format error", n, err)
	}
	srvB.HandleLine(context.Background(), []byte(sweepLine))
	srvB.Drain()
	cells := suiteB.CellsComputed()
	if n, wrote, err := srvB.SaveCache(); err != nil || !wrote || n != int(cells) {
		t.Fatalf("SaveCache after a stale load = %d, %v, %v; want %d cells, written", n, wrote, err, cells)
	}

	srvC, suiteC := persistServer(t, dir, "m")
	if n, err := srvC.LoadCache(); err != nil || n != int(cells) {
		t.Fatalf("LoadCache of the rewritten file = %d, %v; want %d cells", n, err, cells)
	}
	srvC.HandleLine(context.Background(), []byte(sweepLine))
	if got := suiteC.CellsComputed(); got != 0 {
		t.Fatalf("warm start from the rewritten file recomputed %d cells", got)
	}
}

// TestUnchangedCacheNotRewritten: a session that loads the cache
// cleanly and computes nothing leaves the file as it is, with no temp
// file and no rename, while a session that computes a cell rewrites it.
func TestUnchangedCacheNotRewritten(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, cacheFileName)
	srvA, _ := persistServer(t, dir, "m")
	srvA.HandleLine(context.Background(), []byte(sweepLine))
	srvA.Drain()
	cells, wrote, err := srvA.SaveCache()
	if err != nil || !wrote || cells == 0 {
		t.Fatalf("cold SaveCache = %d, %v, %v; want a written file", cells, wrote, err)
	}
	saved, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	srvB, _ := persistServer(t, dir, "m")
	if n, err := srvB.LoadCache(); err != nil || n != cells {
		t.Fatalf("LoadCache = %d, %v; want %d", n, err, cells)
	}
	if n, wrote, err := srvB.SaveCache(); err != nil || wrote || n != cells {
		t.Fatalf("SaveCache after a clean load = %d, %v, %v; want %d cells, not written", n, wrote, err, cells)
	}
	kept, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(saved, kept) {
		t.Fatal("a session that computed nothing rewrote the cache file")
	}
	if tmps, _ := filepath.Glob(path + ".tmp*"); len(tmps) != 0 {
		t.Fatalf("unchanged save left temp files %v", tmps)
	}

	srvC, suiteC := persistServer(t, dir, "m")
	if _, err := srvC.LoadCache(); err != nil {
		t.Fatal(err)
	}
	srvC.HandleLine(context.Background(), []byte(adviseLine))
	srvC.Drain()
	if suiteC.CellsComputed() == 0 {
		t.Fatal("the advise request computed no cell")
	}
	if n, wrote, err := srvC.SaveCache(); err != nil || !wrote || n <= cells {
		t.Fatalf("SaveCache after computing = %d, %v, %v; want more than %d cells, written", n, wrote, err, cells)
	}
	rewritten, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(kept, rewritten) {
		t.Fatal("a session that computed cells did not rewrite the cache file")
	}
}

// TestCacheCornerCases: empty dir config is a no-op, a missing file is
// a clean cold start, and a corrupt file is rejected without killing
// the server.
func TestCacheCornerCases(t *testing.T) {
	srv, _ := persistServer(t, "", "m")
	if n, err := srv.LoadCache(); n != 0 || err != nil {
		t.Fatalf("no cache dir: LoadCache = %d, %v", n, err)
	}
	if n, _, err := srv.SaveCache(); n != 0 || err != nil {
		t.Fatalf("no cache dir: SaveCache = %d, %v", n, err)
	}

	dir := t.TempDir()
	srv2, _ := persistServer(t, dir, "m")
	if n, err := srv2.LoadCache(); n != 0 || err != nil {
		t.Fatalf("missing file: LoadCache = %d, %v", n, err)
	}
	if err := os.WriteFile(filepath.Join(dir, cacheFileName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := srv2.LoadCache(); n != 0 || err == nil {
		t.Fatalf("corrupt file: LoadCache = %d, %v; want rejection", n, err)
	}
}
