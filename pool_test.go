package xennuma

import (
	"runtime"
	"testing"
)

// TestWarmLeaseAllocatesLittle pins what frame-indexed page tables buy
// the warm pool: a machine's shape fixes the size of every table it
// needs, so a lease refills the storage the previous lease left behind.
// A bfs machine at scale 32 is cold-built under round-1G, which maps the
// guest's memory in blocks; a round-4K run of the same shape then maps
// every page individually on the reset machine and must allocate under
// 1 MB in total.
func TestWarmLeaseAllocatesLittle(t *testing.T) {
	o := Options{Scale: 32, Pool: NewPool()}
	if _, err := RunXen("bfs", MustPolicy("round-1g"), o); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunXen("bfs", MustPolicy("round-4k"), o); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if hits, misses := o.Pool.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("pool hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("warm round-4K lease allocated %d bytes, want under 1 MB", got)
	}
}
