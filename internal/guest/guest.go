// Package guest models the para-virtualized guest operating system: its
// physical-page allocator (a cursor handing out never-used pages lowest
// first), and the paper's modified free path — the partitioned page
// queue that batches allocation/release notifications into the
// HypercallPageQueue external interface (§4.2.3–4.2.4). The guest frees
// no page event by event: the release cost of allocator-heavy
// applications is charged by the analytic ChurnModel.
package guest

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/xen"
)

// Guest-side costs in virtual time.
const (
	// costMapSetup is setting up one mapping (the VMAs of an mmap),
	// paid once per Place call whatever its size.
	costMapSetup = 200 * sim.Nanosecond
	// CostGuestFault is a guest-level page fault (lazy allocation path).
	CostGuestFault = 600 * sim.Nanosecond
	// CostQueueAdd is appending one (op, page) pair to a page queue
	// under its lock, excluding any flush.
	CostQueueAdd = 60 * sim.Nanosecond
)

// PhysAlloc is the guest physical-page allocator: a cursor handing out
// pages lowest-first, as Linux's allocator does after boot.
type PhysAlloc struct {
	totalPages uint64
	// nextFresh is the lowest never-allocated page; it starts above the
	// kernel pages at the bottom of the space.
	nextFresh uint64
}

// NewPhysAlloc manages a physical space of totalPages, with the first
// reserved pages considered kernel-owned and never handed out.
func NewPhysAlloc(totalPages, reserved uint64) *PhysAlloc {
	a := &PhysAlloc{}
	a.Reset(totalPages, reserved)
	return a
}

// Alloc returns one free physical page.
func (a *PhysAlloc) Alloc() (mem.PFN, error) {
	if a.nextFresh >= a.totalPages {
		return 0, fmt.Errorf("guest: out of physical memory (%d pages)", a.totalPages)
	}
	p := mem.PFN(a.nextFresh)
	a.nextFresh++
	return p, nil
}

// Reset returns the allocator to its just-constructed state for a new
// physical space of totalPages with the given kernel reservation.
func (a *PhysAlloc) Reset(totalPages, reserved uint64) {
	if reserved >= totalPages {
		panic("guest: reserved pages exceed physical space")
	}
	a.totalPages = totalPages
	a.nextFresh = reserved
}

// ForEachFree visits every free page, in ascending order, without
// materializing them: the free-list flush that primes the hypervisor on
// a switch to first-touch covers the whole unallocated space.
func (a *PhysAlloc) ForEachFree(fn func(mem.PFN)) {
	for p := a.nextFresh; p < a.totalPages; p++ {
		fn(mem.PFN(p))
	}
}

// The paper's page queue (§4.2.4): four queues, partitioned by the two
// least significant bits of the page frame number, each flushed to the
// hypervisor when it holds a batch of 64 operations.
const (
	queueCount = 4
	batchSize  = 64
)

// QueueConfig is the shape of a page queue: ChurnModel's input, which
// varies it to compare the notification designs of §4.2.3–4.2.4.
type QueueConfig struct {
	// Queues is the number of independent queues.
	Queues int
	// BatchSize is the queue capacity that triggers a flush hypercall.
	BatchSize int
	// Unbatched, when true, bypasses the queue entirely and performs one
	// hypercall per operation (the strawman that divides wrmem's
	// performance by 3, §4.2.3).
	Unbatched bool
}

// DefaultQueueConfig returns the paper's configuration, the shape of
// every PageQueue.
func DefaultQueueConfig() QueueConfig {
	return QueueConfig{Queues: queueCount, BatchSize: batchSize}
}

// PageQueue is the guest side of the external interface: it accumulates
// (op, page) pairs in partitioned, lock-protected queues and flushes each
// queue to the hypervisor when full, holding the lock across the
// hypercall so a free page in the queue cannot be reallocated mid-flush.
type PageQueue struct {
	dom    *xen.Domain
	queues [queueCount][]policy.PageOp
}

// NewPageQueue builds the driver for dom, in the paper's shape.
func NewPageQueue(dom *xen.Domain) *PageQueue {
	q := &PageQueue{dom: dom}
	for i := range q.queues {
		q.queues[i] = make([]policy.PageOp, 0, batchSize)
	}
	return q
}

// queueOf partitions by the least significant bits of the PFN (§4.2.4).
func (q *PageQueue) queueOf(p mem.PFN) int {
	return int(uint64(p) % queueCount)
}

// Add records one operation and returns the time spent (lock, append,
// and, when the queue fills, the flush hypercall performed under the
// lock).
func (q *PageQueue) Add(kind policy.PageOpKind, p mem.PFN) sim.Time {
	qi := q.queueOf(p)
	q.queues[qi] = append(q.queues[qi], policy.PageOp{Kind: kind, PFN: p})
	cost := CostQueueAdd
	if len(q.queues[qi]) >= batchSize {
		cost += q.flush(qi)
	}
	return cost
}

// FlushAll drains every queue (used at policy-switch time and shutdown).
func (q *PageQueue) FlushAll() sim.Time {
	var total sim.Time
	for i := range q.queues {
		if len(q.queues[i]) > 0 {
			total += q.flush(i)
		}
	}
	return total
}

func (q *PageQueue) flush(qi int) sim.Time {
	ops := q.queues[qi]
	cost := q.dom.HypercallPageQueue(ops)
	q.queues[qi] = q.queues[qi][:0]
	return cost
}

// Reset rebinds the driver to dom with empty queues, keeping each
// queue's backing array.
func (q *PageQueue) Reset(dom *xen.Domain) {
	q.dom = dom
	for i := range q.queues {
		q.queues[i] = q.queues[i][:0]
	}
}

// Pending reports the total queued, unflushed operations.
func (q *PageQueue) Pending() int {
	n := 0
	for _, qq := range q.queues {
		n += len(qq)
	}
	return n
}

// OS ties the pieces together for one domain.
type OS struct {
	Dom   *xen.Domain
	Phys  *PhysAlloc
	Queue *PageQueue
	// queueActive is set while a page-queue-consuming policy (e.g.
	// first-touch) is selected: only then does the guest notify the
	// hypervisor of page traffic.
	queueActive bool
}

// NewOS boots a guest on dom, reserving kernelPages at the bottom of
// the physical space.
func NewOS(dom *xen.Domain, kernelPages uint64) *OS {
	return &OS{
		Dom:   dom,
		Phys:  NewPhysAlloc(dom.PhysPages(), kernelPages),
		Queue: NewPageQueue(dom),
	}
}

// reset reboots the guest on a (possibly different) domain, restoring
// the allocator and queue to pristine state while keeping the queue's
// storage.
func (g *OS) reset(dom *xen.Domain, kernelPages uint64) {
	g.Dom = dom
	g.Phys.Reset(dom.PhysPages(), kernelPages)
	g.Queue.Reset(dom)
	g.queueActive = false
}

// SetPolicy performs the policy-selection hypercall. Switching to a
// page-queue-consuming policy (first-touch) additionally primes the
// hypervisor by flushing the whole guest free list through the page
// queue, so that every free page's hypervisor entry is invalidated and
// the next touch faults (§4.2.2).
func (g *OS) SetPolicy(cfg policy.Config) (sim.Time, error) {
	cost, err := g.Dom.HypercallSetPolicy(cfg)
	if err != nil {
		return cost, err
	}
	wasActive := g.queueActive
	g.queueActive = policy.UsesPageQueue(cfg.Static)
	if g.queueActive && !wasActive {
		g.Phys.ForEachFree(func(p mem.PFN) {
			cost += g.Queue.Add(policy.OpRelease, p)
		})
		cost += g.Queue.FlushAll()
	}
	return cost, nil
}

// QueueActive reports whether page traffic is being forwarded.
func (g *OS) QueueActive() bool { return g.queueActive }

// AllocPage allocates one physical page for a process, notifying the
// hypervisor when the queue is active. The returned time covers the
// guest fault path and any queue work.
func (g *OS) AllocPage() (mem.PFN, sim.Time, error) {
	p, err := g.Phys.Alloc()
	if err != nil {
		return 0, 0, err
	}
	cost := CostGuestFault
	if g.queueActive {
		cost += g.Queue.Add(policy.OpAlloc, p)
	}
	return p, cost, nil
}
