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
// must allocate under 64 KB in total. A second same-shape
// round-4K/Carrefour lease, its engine scratch kept on the machine's
// runner, must match a cold-built run and allocate under 8 KB, and so
// must a second same-shape colocated pair lease, its domains refilling
// their own shells, under 16 KB. After a single 48-thread VM on the
// same pool, a third colocated pair lease, whose first engine instance
// shrinks in place from 48 threads to 24, must match a cold-built run
// and allocate under 16 KB. Natively, a second round-4K bfs run on the
// scale's native machine must match a cold-built run and allocate under
// 32 KB. The two NoPool reference runs bound what a cold build pays
// for its per-page state: the Xen round-4K/Carrefour run must allocate
// under 3 MB in total and the native round-4K run under 1.5 MB.
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
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("warm round-4K lease allocated %d bytes, want under 64 KB", got)
	}

	// Same shape twice with Carrefour: the second lease's engine scratch
	// (epoch loads, controllers, sample arenas) is the machine's runner's,
	// reset in place, so the lease allocates little beyond its result.
	carr := MustPolicy("round-4k/carrefour")
	runtime.ReadMemStats(&before)
	carrRef, err := RunXen("bfs", carr, Options{Scale: 32, NoPool: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 3<<20 {
		t.Fatalf("cold-built Xen round-4K/Carrefour run allocated %d bytes, want under 3 MB", got)
	}
	if _, err := RunXen("bfs", carr, o); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	warmCarr, err := RunXen("bfs", carr, o)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmCarr, carrRef) {
		t.Fatalf("warm Carrefour lease diverges from a cold-built run:\nwarm: %+v\ncold: %+v", warmCarr, carrRef)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<10 {
		t.Fatalf("same-shape warm Carrefour lease allocated %d bytes, want under 8 KB", got)
	}

	// Same-shape colocated pair twice, the larger VM first: domain n of
	// the second lease gets the shell of the first lease's domain n,
	// whose page table already has its size, and the vCPU pins refill
	// the machine's buffers.
	pol := MustPolicy("round-4k")
	pair := func(o Options) ([2]Result, error) {
		a, b, err := RunXenPair("wc", pol, "bfs", carr, Colocated, false, o)
		return [2]Result{a, b}, err
	}
	pairRef, err := pair(Options{Scale: 32, NoPool: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pair(o); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	warmPair, err := pair(o)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := o.Pool.Stats(); hits != 5 || misses != 1 {
		t.Fatalf("pool hits/misses = %d/%d, want 5/1", hits, misses)
	}
	if !reflect.DeepEqual(warmPair, pairRef) {
		t.Fatalf("warm colocated pair lease diverges from a cold-built run:\nwarm: %+v\ncold: %+v", warmPair, pairRef)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Fatalf("same-shape warm colocated pair lease allocated %d bytes, want under 16 KB", got)
	}

	// Reshaped: the first VM of a colocated pair has 24 threads on the
	// machine last leased with a single 48-thread VM.
	if _, err := RunXen("bfs", pol, o); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	reshaped, err := pair(o)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := o.Pool.Stats(); hits != 7 || misses != 1 {
		t.Fatalf("pool hits/misses = %d/%d, want 7/1", hits, misses)
	}
	if !reflect.DeepEqual(reshaped, pairRef) {
		t.Fatalf("colocated pair lease after a 48-thread VM diverges from a cold-built run:\nwarm: %+v\ncold: %+v", reshaped, pairRef)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Fatalf("colocated pair lease after a 48-thread VM allocated %d bytes, want under 16 KB", got)
	}

	runtime.ReadMemStats(&before)
	ref, err := RunLinux("bfs", pol, Options{Scale: 32, NoPool: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 3<<19 {
		t.Fatalf("cold-built native round-4K run allocated %d bytes, want under 1.5 MB", got)
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
	if got := after.TotalAlloc - before.TotalAlloc; got >= 32<<10 {
		t.Fatalf("warm native lease allocated %d bytes, want under 32 KB", got)
	}
}

// TestBadPairModeKeepsWarmMachine: RunXenPair rejects an unknown pair
// mode before it leases a machine, so the pool keeps its warm machine
// and the next run on it is a hit.
func TestBadPairModeKeepsWarmMachine(t *testing.T) {
	o := Options{Scale: 256, Pool: NewPool()}
	pol := MustPolicy("round-4k")
	if _, err := RunXen("swaptions", pol, o); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunXenPair("swaptions", pol, "swaptions", pol, PairMode(7), false, o); err == nil {
		t.Fatal("RunXenPair accepted pair mode 7")
	}
	if _, err := RunXen("swaptions", pol, o); err != nil {
		t.Fatal(err)
	}
	if hits, misses := o.Pool.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("pool hits/misses = %d/%d, want 1/1: the rejected pair call dropped the warm machine", hits, misses)
	}
}
