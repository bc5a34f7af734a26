package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/numa"
)

func testAlloc(t *testing.T) *Allocator {
	t.Helper()
	// 2 nodes × 256 MiB keeps tests fast; 256 MiB = 65536 frames/node.
	return NewAllocator(numa.SmallMachine(2, 2, 256<<20))
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := testAlloc(t)
	before := a.FreeBytes(0)
	mfn, err := a.Alloc(0, Order4K)
	if err != nil {
		t.Fatal(err)
	}
	if a.NodeOf(mfn) != 0 {
		t.Fatalf("frame %d not on node 0", mfn)
	}
	if got := a.FreeBytes(0); got != before-PageSize {
		t.Fatalf("free bytes %d, want %d", got, before-PageSize)
	}
	a.Free(mfn, Order4K)
	if got := a.FreeBytes(0); got != before {
		t.Fatalf("free bytes after free %d, want %d", got, before)
	}
}

func TestAllocRespectsNode(t *testing.T) {
	a := testAlloc(t)
	for i := 0; i < 1000; i++ {
		mfn, err := a.Alloc(1, Order4K)
		if err != nil {
			t.Fatal(err)
		}
		if a.NodeOf(mfn) != 1 {
			t.Fatalf("allocation on node 1 returned frame of node %d", a.NodeOf(mfn))
		}
	}
}

func TestAllocUniqueFrames(t *testing.T) {
	a := testAlloc(t)
	seen := make(map[MFN]bool)
	for i := 0; i < 10000; i++ {
		mfn, err := a.Alloc(0, Order4K)
		if err != nil {
			t.Fatal(err)
		}
		if seen[mfn] {
			t.Fatalf("frame %d handed out twice", mfn)
		}
		seen[mfn] = true
	}
}

func TestAllocLargeOrders(t *testing.T) {
	a := testAlloc(t)
	// 256 MiB per node cannot hold a 1 GiB block.
	if _, err := a.Alloc(0, Order1G); err == nil {
		t.Fatal("1 GiB allocation on a 256 MiB node succeeded")
	}
	mfn, err := a.Alloc(0, Order2M)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(mfn)%FramesOf(Order2M) != 0 {
		t.Fatalf("2 MiB block %d misaligned", mfn)
	}
	a.Free(mfn, Order2M)
}

func TestExhaustion(t *testing.T) {
	a := NewAllocator(numa.SmallMachine(1, 1, 1<<20)) // 256 frames
	var frames []MFN
	for {
		mfn, err := a.Alloc(0, Order4K)
		if err != nil {
			break
		}
		frames = append(frames, mfn)
	}
	if len(frames) != 256 {
		t.Fatalf("allocated %d frames from a 256-frame node", len(frames))
	}
	if a.FreeBytes(0) != 0 {
		t.Fatalf("free bytes = %d after exhaustion", a.FreeBytes(0))
	}
	for _, f := range frames {
		a.Free(f, Order4K)
	}
	if a.FreeBytes(0) != 1<<20 {
		t.Fatal("free bytes not restored after freeing everything")
	}
}

// TestFailedAllocIsFree: a full node's Alloc returns the bare
// ErrNoMemory sentinel without allocating. Fallback paths try node after
// node and discard every failure, so formatting one would cost a heap
// allocation per attempt.
func TestFailedAllocIsFree(t *testing.T) {
	a := NewAllocator(numa.SmallMachine(1, 1, 1<<20)) // 256 frames
	if _, err := a.Alloc(0, 8); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		_, err = a.Alloc(0, Order4K)
	})
	if !errors.Is(err, ErrNoMemory) {
		t.Fatalf("Alloc on a full node = %v, want ErrNoMemory", err)
	}
	if allocs != 0 {
		t.Fatalf("failed Alloc made %v allocations, want 0", allocs)
	}
}

func TestCoalescing(t *testing.T) {
	a := NewAllocator(numa.SmallMachine(1, 1, 8<<20)) // 2048 frames
	// Fragment completely, then free: the allocator must coalesce back
	// to being able to serve a 2 MiB block.
	var frames []MFN
	for i := 0; i < 2048; i++ {
		mfn, err := a.Alloc(0, Order4K)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, mfn)
	}
	for _, f := range frames {
		a.Free(f, Order4K)
	}
	if _, err := a.Alloc(0, Order2M); err != nil {
		t.Fatalf("no 2 MiB block after full coalescing: %v", err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := testAlloc(t)
	mfn, _ := a.Alloc(0, Order4K)
	a.Free(mfn, Order4K)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(mfn, Order4K)
}

func TestMisalignedFreePanics(t *testing.T) {
	a := testAlloc(t)
	mfn, _ := a.Alloc(0, Order2M)
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned free did not panic")
		}
	}()
	a.Free(mfn+1, Order2M)
}

func TestNodeOfPartitions(t *testing.T) {
	a := testAlloc(t)
	per := a.framesPerNode
	if a.NodeOf(MFN(0)) != 0 || a.NodeOf(MFN(per-1)) != 0 {
		t.Fatal("node 0 bank misattributed")
	}
	if a.NodeOf(MFN(per)) != 1 {
		t.Fatal("node 1 bank misattributed")
	}
}

func TestFreeBlocksSnapshot(t *testing.T) {
	a := NewAllocator(numa.SmallMachine(1, 1, 4<<20))
	blocks := a.FreeBlocks(0)
	var total uint64
	for _, b := range blocks {
		total += FramesOf(b.Order)
	}
	if total != 1024 {
		t.Fatalf("free blocks cover %d frames, want 1024", total)
	}
}

// TestQuickAllocFreeInvariant property-tests the allocator: any sequence
// of allocations and frees preserves total memory and never double-
// allocates.
func TestQuickAllocFreeInvariant(t *testing.T) {
	check := func(ops []uint8) bool {
		a := NewAllocator(numa.SmallMachine(2, 1, 4<<20))
		totalBytes := a.TotalFreeBytes()
		type alloc struct {
			mfn   MFN
			order int
		}
		var live []alloc
		seen := make(map[MFN]bool)
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				node := numa.NodeID(op / 2 % 2)
				order := int(op/4) % 3 * 3 // orders 0, 3, 6
				mfn, err := a.Alloc(node, order)
				if err != nil {
					continue
				}
				if seen[mfn] {
					return false // double allocation
				}
				seen[mfn] = true
				if a.NodeOf(mfn) != node {
					return false
				}
				live = append(live, alloc{mfn, order})
			} else {
				i := int(op) % len(live)
				a.Free(live[i].mfn, live[i].order)
				delete(seen, live[i].mfn)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		var liveBytes int64
		for _, l := range live {
			liveBytes += int64(FramesOf(l.order)) * PageSize
		}
		return a.TotalFreeBytes() == totalBytes-liveBytes
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFramesOf(t *testing.T) {
	if FramesOf(Order4K) != 1 || FramesOf(Order2M) != 512 || FramesOf(Order1G) != 262144 {
		t.Fatal("order frame counts wrong")
	}
}
