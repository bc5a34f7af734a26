package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/exp"
	"repro/internal/faultinject"
)

// Disk persistence of the cell cache: the suite's computed cells are
// snapshotted to one JSON-lines file under Config.CacheDir — a header
// carrying the format and model-version stamp, then one checksummed
// cell per line. Cells are keyed by the cache's own "seed=N/<key>"
// strings (N is 0 for a cell that reads no seed), so a restart
// restores exactly the entries a fresh computation would have
// produced. A stamp mismatch — the engine's observable behaviour
// changed, by policy regenerating the golden fixture — rejects the
// whole file rather than replaying results the current model would not
// compute, and so does an older format, whose keys the suite may never
// name again; a corrupt tail (torn write, bit rot) salvages the valid
// prefix: every line whose checksum verifies is restored, the rest
// recomputes.

// Fault sites at the persistence boundary: injected errors stand in
// for I/O failures on load and save.
var (
	fiCacheLoad = faultinject.Register("serve.cache.load")
	fiCacheSave = faultinject.Register("serve.cache.save")
)

// cacheFileName is the single cache file inside CacheDir.
const cacheFileName = "cells.json"

// cacheFormat versions the on-disk layout (3 = checksummed JSON-lines
// keying a cell that reads no seed under seed 0; 2 keyed every cell
// under its suite's seed; 1 was a single all-or-nothing JSON object).
const cacheFormat = 3

// maxCacheLineBytes bounds one cache line; a cell snapshot is a few
// hundred bytes, so the bound only guards against reading garbage.
const maxCacheLineBytes = 8 << 20

// cacheHeader is the file's first line.
type cacheHeader struct {
	Format int    `json:"format"`
	Model  string `json:"model"`
}

// cacheRecord is one cell line: the snapshot's exact JSON bytes plus
// their FNV-1a checksum, so a torn or corrupted line is detected
// before it reaches the suite.
type cacheRecord struct {
	Cell json.RawMessage `json:"cell"`
	Sum  string          `json:"sum"`
}

// cellSum is the checksum of one cell's marshaled bytes.
func cellSum(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// LoadCache restores the persisted cell cache, returning how many cells
// were installed. A missing file or empty CacheDir is a clean cold
// start (0, nil). A bad header, an older format or a model-version
// mismatch installs nothing; a corruption further in salvages the
// valid prefix — the cells restored before the first bad line stay
// installed (counted in Health.CacheSalvaged) and the error describes
// what was lost. In every error case the caller logs and serves
// (partially) cold; the next SaveCache overwrites the damaged file.
func (s *Server) LoadCache() (int, error) {
	s.cacheClean = false
	if s.cfg.CacheDir == "" {
		return 0, nil
	}
	if err := fiCacheLoad.Fire(); err != nil {
		return 0, fmt.Errorf("cache load: %w", err)
	}
	path := filepath.Join(s.cfg.CacheDir, cacheFileName)
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), maxCacheLineBytes)
	if !sc.Scan() {
		return 0, fmt.Errorf("corrupt cache %s: empty file (%v)", path, sc.Err())
	}
	var hdr cacheHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Format < 1 || hdr.Format > cacheFormat {
		return 0, fmt.Errorf("corrupt cache %s: unrecognized header", path)
	}
	if hdr.Format != cacheFormat {
		return 0, fmt.Errorf("stale cache %s: written by cache format %d; recomputing", path, hdr.Format)
	}
	if hdr.Model != s.cfg.ModelVersion {
		return 0, fmt.Errorf("stale cache %s: model %q, engine is %q; recomputing",
			path, hdr.Model, s.cfg.ModelVersion)
	}

	var cells []exp.CellSnapshot
	var corrupt error
	line := 1
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec cacheRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			corrupt = fmt.Errorf("line %d: %v", line, err)
			break
		}
		if got := cellSum(rec.Cell); got != rec.Sum {
			corrupt = fmt.Errorf("line %d: checksum %s, recorded %s", line, got, rec.Sum)
			break
		}
		var c exp.CellSnapshot
		if err := json.Unmarshal(rec.Cell, &c); err != nil {
			corrupt = fmt.Errorf("line %d: cell: %v", line, err)
			break
		}
		cells = append(cells, c)
	}
	if corrupt == nil && sc.Err() != nil {
		corrupt = fmt.Errorf("after line %d: %v", line, sc.Err())
	}
	n := s.suite.Restore(cells)
	s.restored.Add(int64(n))
	if corrupt != nil {
		s.salvaged.Add(1)
		return n, fmt.Errorf("corrupt cache %s: %v; salvaged the %d-cell valid prefix, recomputing the rest",
			path, corrupt, n)
	}
	s.cacheClean = n == len(cells)
	return n, nil
}

// SaveCache snapshots the suite's computed cells to CacheDir, returning
// how many cells the cache file holds and whether it wrote the file.
// After a clean LoadCache (see cacheClean) in a session that computed
// no cell, the file already holds every cell, and SaveCache leaves it
// as it is. Otherwise the write is atomic (temp file + rename), so a
// crash mid-save leaves the previous cache intact; temp files a crashed
// save left behind are swept before writing (LoadCache never reads
// them — only the renamed cacheFileName is ever loaded).
func (s *Server) SaveCache() (n int, wrote bool, err error) {
	if s.cfg.CacheDir == "" {
		return 0, false, nil
	}
	if s.cacheClean && s.suite.CellsComputed() == 0 {
		return s.suite.CachedCells(), false, nil
	}
	if err := fiCacheSave.Fire(); err != nil {
		return 0, false, fmt.Errorf("cache save: %w", err)
	}
	cells := s.suite.Snapshot()
	var buf bytes.Buffer
	hdr, err := json.Marshal(cacheHeader{Format: cacheFormat, Model: s.cfg.ModelVersion})
	if err != nil {
		return 0, false, err
	}
	buf.Write(hdr)
	buf.WriteByte('\n')
	for _, c := range cells {
		cb, err := json.Marshal(c)
		if err != nil {
			return 0, false, err
		}
		rec, err := json.Marshal(cacheRecord{Cell: cb, Sum: cellSum(cb)})
		if err != nil {
			return 0, false, err
		}
		buf.Write(rec)
		buf.WriteByte('\n')
	}
	if err := os.MkdirAll(s.cfg.CacheDir, 0o755); err != nil {
		return 0, false, err
	}
	if stale, _ := filepath.Glob(filepath.Join(s.cfg.CacheDir, cacheFileName+".tmp*")); len(stale) > 0 {
		for _, p := range stale {
			os.Remove(p)
		}
	}
	path := filepath.Join(s.cfg.CacheDir, cacheFileName)
	tmp, err := os.CreateTemp(s.cfg.CacheDir, cacheFileName+".tmp*")
	if err != nil {
		return 0, false, err
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, false, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, false, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, false, err
	}
	return len(cells), true, nil
}
