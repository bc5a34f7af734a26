// Package mem manages the machine memory: each NUMA node's bank is carved
// into frames handed out by a per-node buddy allocator supporting the
// three region sizes Xen allocates (4 KiB pages, 2 MiB and 1 GiB
// regions). Frames are identified by machine frame numbers (MFNs) global
// to the machine; the node owning an MFN is recovered from the static
// NUMA-region map, exactly as hardware routes accesses (§3 of the paper).
package mem

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/numa"
)

// PageSize is the base frame size.
const PageSize = 4 << 10 // 4 KiB

// MFN is a machine frame number: a machine address divided by PageSize.
type MFN uint64

// PFN is a guest physical frame number: an address in a virtual machine's
// physical address space divided by PageSize.
type PFN uint64

// NoMFN is the sentinel for "not mapped".
const NoMFN = MFN(^uint64(0))

// Buddy orders for the three Xen allocation granularities.
const (
	Order4K  = 0  // 4 KiB
	Order2M  = 9  // 2 MiB = 512 frames
	Order1G  = 18 // 1 GiB = 262144 frames
	maxOrder = Order1G
)

// FramesOf returns the frame count of a block of the given order.
func FramesOf(order int) uint64 { return 1 << uint(order) }

// ErrNoMemory is returned when a node (or the machine) cannot satisfy an
// allocation at the requested order. Alloc returns it bare: fallback
// paths try node after node and discard each failure, so it carries no
// node or order, and callers that surface it add their own context.
var ErrNoMemory = errors.New("mem: out of memory")

// Allocator owns the machine memory of a Topology.
type Allocator struct {
	framesPerNode uint64
	nodes         []nodeAlloc
}

type nodeAlloc struct {
	base      MFN // first frame of the node's bank
	frames    uint64
	freeList  [maxOrder + 1][]MFN // LIFO free lists per order
	freeSet   map[MFN]int         // free block start → order (for coalescing)
	freeBytes int64
}

// NewAllocator carves topo's memory into per-node buddy pools. All nodes
// must have the same bank size (true for every machine in this repo) and
// the bank size must be a multiple of the largest order.
func NewAllocator(topo *numa.Topology) *Allocator {
	a := new(Allocator)
	if topo.NumNodes() == 0 {
		panic("mem: topology has no nodes")
	}
	per := uint64(topo.Nodes[0].MemBytes) / PageSize
	for _, n := range topo.Nodes {
		if uint64(n.MemBytes)/PageSize != per {
			panic("mem: heterogeneous node sizes not supported")
		}
	}
	a.framesPerNode = per
	for i := range topo.Nodes {
		na := nodeAlloc{
			base:    MFN(uint64(i) * per),
			frames:  per,
			freeSet: make(map[MFN]int),
		}
		na.seed()
		a.nodes = append(a.nodes, na)
	}
	return a
}

// seed fills the node's free lists with the largest aligned blocks that
// fit, lowest address first — the pristine shape every allocation
// sequence starts from. It assumes the lists and set are empty.
func (na *nodeAlloc) seed() {
	na.freeBytes = int64(na.frames) * PageSize
	start, remaining := na.base, na.frames
	for remaining > 0 {
		order := maxOrder
		for FramesOf(order) > remaining || uint64(start)%FramesOf(order) != 0 {
			order--
			if order < 0 {
				panic("mem: unalignable bank")
			}
		}
		na.freeList[order] = append(na.freeList[order], start)
		na.freeSet[start] = order
		start += MFN(FramesOf(order))
		remaining -= FramesOf(order)
	}
}

// Reset returns every node's free lists to the pristine shape
// NewAllocator seeds — same blocks, same per-order LIFO order — no
// matter what sequence of Alloc and Free calls ran in between. The
// existing list and set storage is reused, so a reset machine allocates
// nothing new. It is the bottom layer of the warm-machine reset
// protocol: every allocation after a Reset behaves bit-for-bit as on a
// freshly built allocator.
func (a *Allocator) Reset() {
	for i := range a.nodes {
		na := &a.nodes[i]
		for o := range na.freeList {
			na.freeList[o] = na.freeList[o][:0]
		}
		clear(na.freeSet)
		na.seed()
	}
}

// NodeOf returns the node owning mfn (the NUMA-region map).
func (a *Allocator) NodeOf(mfn MFN) numa.NodeID {
	n := uint64(mfn) / a.framesPerNode
	if n >= uint64(len(a.nodes)) {
		panic(fmt.Sprintf("mem: MFN %d outside machine memory", mfn))
	}
	return numa.NodeID(n)
}

// FreeBytes returns the free memory on node.
func (a *Allocator) FreeBytes(node numa.NodeID) int64 { return a.nodes[node].freeBytes }

// TotalFreeBytes returns machine-wide free memory.
func (a *Allocator) TotalFreeBytes() int64 {
	var sum int64
	for i := range a.nodes {
		sum += a.nodes[i].freeBytes
	}
	return sum
}

// Alloc allocates a block of 2^order frames on node. It fails with
// ErrNoMemory when the node cannot satisfy the request even after
// splitting larger blocks; it never falls back to another node (callers
// implement their own fallback policy, e.g. first-touch round-robin).
func (a *Allocator) Alloc(node numa.NodeID, order int) (MFN, error) {
	if order < 0 || order > maxOrder {
		panic(fmt.Sprintf("mem: invalid order %d", order))
	}
	na := &a.nodes[node]
	// Find the smallest populated order >= requested.
	from := order
	for from <= maxOrder && len(na.freeList[from]) == 0 {
		from++
	}
	if from > maxOrder {
		return NoMFN, ErrNoMemory
	}
	// Pop and split down to the requested order.
	block := na.pop(from)
	for from > order {
		from--
		buddy := block + MFN(FramesOf(from))
		na.push(from, buddy)
	}
	na.freeBytes -= int64(FramesOf(order)) * PageSize
	return block, nil
}

// Free returns a block allocated at the given order, coalescing buddies.
func (a *Allocator) Free(mfn MFN, order int) {
	if order < 0 || order > maxOrder {
		panic(fmt.Sprintf("mem: invalid order %d", order))
	}
	node := a.NodeOf(mfn)
	na := &a.nodes[node]
	if uint64(mfn)%FramesOf(order) != 0 {
		panic(fmt.Sprintf("mem: freeing misaligned block %d at order %d", mfn, order))
	}
	if _, already := na.freeSet[mfn]; already {
		panic(fmt.Sprintf("mem: double free of MFN %d", mfn))
	}
	na.freeBytes += int64(FramesOf(order)) * PageSize
	// Coalesce upward while the buddy is free at the same order and the
	// merged block stays within the node bank.
	for order < maxOrder {
		buddy := mfn ^ MFN(FramesOf(order))
		bo, free := na.freeSet[buddy]
		if !free || bo != order {
			break
		}
		na.remove(order, buddy)
		if buddy < mfn {
			mfn = buddy
		}
		order++
	}
	na.push(order, mfn)
}

func (na *nodeAlloc) pop(order int) MFN {
	l := na.freeList[order]
	block := l[len(l)-1]
	na.freeList[order] = l[:len(l)-1]
	delete(na.freeSet, block)
	return block
}

func (na *nodeAlloc) push(order int, block MFN) {
	na.freeList[order] = append(na.freeList[order], block)
	na.freeSet[block] = order
}

func (na *nodeAlloc) remove(order int, block MFN) {
	l := na.freeList[order]
	for i, b := range l {
		if b == block {
			l[i] = l[len(l)-1]
			na.freeList[order] = l[:len(l)-1]
			delete(na.freeSet, block)
			return
		}
	}
	panic(fmt.Sprintf("mem: block %d not on free list at order %d", block, order))
}

// FreeBlocks returns a sorted snapshot of node's free blocks (start,
// order) for inspection in tests.
func (a *Allocator) FreeBlocks(node numa.NodeID) []FreeBlock {
	na := &a.nodes[node]
	out := make([]FreeBlock, 0, len(na.freeSet))
	for o := range na.freeList {
		for _, b := range na.freeList[o] {
			out = append(out, FreeBlock{Start: b, Order: o})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// FreeBlock describes one free extent.
type FreeBlock struct {
	Start MFN
	Order int
}
