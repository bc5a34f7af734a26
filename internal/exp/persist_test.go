package exp

import (
	"encoding/json"
	"reflect"
	"testing"

	xennuma "repro"
)

// TestSnapshotRestoreRoundTrip pins the cache persistence contract: a
// fresh suite restored from a snapshot serves the same cells
// bit-for-bit without computing anything, including through a JSON
// round trip (the on-disk representation).
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewSuiteParallel(256, 2)
	s.Xen("swaptions", "first-touch", true).Result()
	s.Linux("swaptions", "round-4k", true).Result()
	s.XenPair("swaptions", "first-touch", "swaptions", "round-4k", xennuma.Consolidated, false).Results()

	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d cells, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Key >= snap[i].Key {
			t.Fatalf("snapshot keys not sorted: %q >= %q", snap[i-1].Key, snap[i].Key)
		}
	}

	// Disk round trip: marshal, unmarshal, restore into a fresh suite.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []CellSnapshot
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	s2 := NewSuiteParallel(256, 2)
	if n := s2.Restore(decoded); n != 3 {
		t.Fatalf("restored %d cells, want 3", n)
	}
	if got := s2.CellsComputed(); got != 0 {
		t.Fatalf("restore counted as computed: CellsComputed = %d", got)
	}
	if got := s2.CachedCells(); got != 3 {
		t.Fatalf("CachedCells = %d, want 3", got)
	}

	// The restored suite serves the same observable results without
	// computing: snapshots (which capture every field the tables and
	// golden fixture read) must match exactly.
	r1 := s.Xen("swaptions", "first-touch", true).Result()
	r2 := s2.Xen("swaptions", "first-touch", true).Result()
	if !reflect.DeepEqual(toSnapshot(r1), toSnapshot(r2)) {
		t.Fatalf("restored cell drifted:\n fresh   %+v\n restored %+v", toSnapshot(r1), toSnapshot(r2))
	}
	if got := s2.CellsComputed(); got != 0 {
		t.Fatalf("restored cell recomputed: CellsComputed = %d", got)
	}
	if !reflect.DeepEqual(s2.Snapshot(), snap) {
		t.Fatal("snapshot of restored suite differs from the original snapshot")
	}
}

// TestRestoreSkipsExistingAndMalformed: restoring over a warm cache
// keeps the computed cells, and junk records are ignored.
func TestRestoreSkipsExistingAndMalformed(t *testing.T) {
	s := NewSuiteParallel(256, 1)
	r := s.Xen("swaptions", "first-touch", true).Result()
	snap := s.Snapshot()

	junk := append([]CellSnapshot{
		{Key: "", Results: snap[0].Results}, // empty key
		{Key: "seed=1/bogus"},               // no results
	}, snap...)
	if n := s.Restore(junk); n != 0 {
		t.Fatalf("restore over a warm cache installed %d cells, want 0", n)
	}
	if got := s.Xen("swaptions", "first-touch", true).Result(); !reflect.DeepEqual(got, r) {
		t.Fatal("restore over a warm cache changed a computed cell")
	}
}
