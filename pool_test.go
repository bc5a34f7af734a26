package xennuma

import (
	"reflect"
	"runtime"
	"testing"
)

// TestWarmLeaseAllocatesLittle pins what frame-indexed page tables buy
// the warm pool: a reset machine refills the storage the previous lease
// left behind. A bfs machine at scale 32 is cold-built under round-1G,
// which maps the guest's memory in blocks; a round-4K run on the same
// machine then maps every page individually on the reset machine and
// must allocate under 1 MB in total. A 24-thread round-4K lease that
// follows on the same pool must match a cold-built run and, with the
// engine instance's thread and region storage shrunk in place, allocate
// under 256 KB. Natively, a second round-4K bfs run on the scale's
// native machine must match a cold-built run and allocate under 256 KB.
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

	pol := MustPolicy("round-4k")
	// Reshaped: 24 threads on the machine last leased with 48.
	half := o
	half.Threads = 24
	halfRef, err := RunXen("bfs", pol, Options{Scale: 32, Threads: 24, NoPool: true})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	reshaped, err := RunXen("bfs", pol, half)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := o.Pool.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("pool hits/misses = %d/%d, want 2/1", hits, misses)
	}
	if !reflect.DeepEqual(reshaped, halfRef) {
		t.Fatalf("24-thread lease after a 48-thread one diverges from a cold-built run:\nwarm: %+v\ncold: %+v", reshaped, halfRef)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Fatalf("24-thread lease after a 48-thread one allocated %d bytes, want under 256 KB", got)
	}

	ref, err := RunLinux("bfs", pol, Options{Scale: 32, NoPool: true})
	if err != nil {
		t.Fatal(err)
	}
	native := Options{Scale: 32, Pool: NewPool()}
	if _, err := RunLinux("bfs", pol, native); err != nil {
		t.Fatal(err)
	}
	// Results only see each page's node, so a lease that skipped the
	// allocator reset would still match; its frames would not.
	freeBytes := func() int64 {
		return native.Pool.free[poolKey{scale: 32, native: true}][0].native.Alloc.TotalFreeBytes()
	}
	coldFree := freeBytes()
	runtime.ReadMemStats(&before)
	warm, err := RunLinux("bfs", pol, native)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := native.Pool.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("native pool hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if !reflect.DeepEqual(warm, ref) {
		t.Fatalf("warm native run diverges from a cold-built one:\nwarm: %+v\ncold: %+v", warm, ref)
	}
	if got := freeBytes(); got != coldFree {
		t.Fatalf("warm native run left %d bytes free, the cold run %d: the lease did not reset memory", got, coldFree)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Fatalf("warm native lease allocated %d bytes, want under 256 KB", got)
	}
}
