package guest

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/xen"
)

func testDomain(t *testing.T) (*xen.Hypervisor, *xen.Domain) {
	t.Helper()
	topo := numa.SmallMachine(4, 4, 64<<20)
	hv, err := xen.New(topo, xen.Config{HugeOrder: 10, MidOrder: 3}, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	d, err := hv.CreateDomain(xen.DomainSpec{
		Name: "u1", MemBytes: 16 << 20,
		PinCPUs: []numa.CPUID{0, 4, 8, 12}, Boot: policy.Round4K,
	})
	if err != nil {
		t.Fatal(err)
	}
	return hv, d
}

func TestPhysAllocLowFirstThenLIFO(t *testing.T) {
	a := NewPhysAlloc(100, 10)
	p1, err := a.Alloc()
	if err != nil || p1 != 10 {
		t.Fatalf("first page = %d, %v; want 10 (after reserve)", p1, err)
	}
	p2, _ := a.Alloc()
	if p2 != 11 {
		t.Fatalf("second page = %d", p2)
	}
	// Reset restarts the cursor above the new reservation.
	a.Reset(50, 20)
	if p3, err := a.Alloc(); err != nil || p3 != 20 {
		t.Fatalf("first page after Reset = %d, %v; want 20", p3, err)
	}
}

func TestPhysAllocExhaustion(t *testing.T) {
	a := NewPhysAlloc(12, 10)
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("allocation beyond the physical space succeeded")
	}
}

func TestPhysAllocFreePages(t *testing.T) {
	a := NewPhysAlloc(20, 4)
	a.Alloc()
	a.Alloc()
	var free []mem.PFN
	a.ForEachFree(func(f mem.PFN) { free = append(free, f) })
	// The 14 never-allocated pages, in ascending order.
	if len(free) != 14 || free[0] != 6 || free[13] != 19 {
		t.Fatalf("free pages = %v, want 6..19", free)
	}
}

// flushCost is the cost of flushing one batch to a domain whose policy
// ignores the page queue: the hypercall and the queue transfer.
const flushCost = xen.CostHypercall + xen.CostQueueSend

func TestQueuePartitioning(t *testing.T) {
	_, d := testDomain(t)
	q := NewPageQueue(d)
	// Pages with equal low bits go to the same queue; the queue must not
	// flush before BatchSize entries. A flush shows in Add's cost.
	for i := 0; i < 63; i++ {
		if cost := q.Add(policy.OpRelease, mem.PFN(i*4)); cost != CostQueueAdd { // all hit queue 0
			t.Fatalf("premature flush at op %d: cost %v", i, cost)
		}
	}
	if q.Pending() != 63 {
		t.Fatalf("pending = %d", q.Pending())
	}
	if cost := q.Add(policy.OpRelease, mem.PFN(63*4)); cost != CostQueueAdd+flushCost {
		t.Fatalf("filling the batch cost %v, want one add and one flush", cost)
	}
	if q.Pending() != 0 {
		t.Fatal("queue not drained by flush")
	}
}

func TestQueueIndependentQueues(t *testing.T) {
	_, d := testDomain(t)
	q := NewPageQueue(d)
	// Spread over the 4 queues: no flush until one queue fills.
	for i := 0; i < 4*63; i++ {
		if cost := q.Add(policy.OpRelease, mem.PFN(i)); cost != CostQueueAdd {
			t.Fatalf("premature flush at op %d (each queue at most 63/64): cost %v", i, cost)
		}
	}
	if cost := q.FlushAll(); cost != 4*flushCost || q.Pending() != 0 {
		t.Fatalf("FlushAll: cost = %v, want 4 flushes (%v); pending = %d", cost, 4*flushCost, q.Pending())
	}
}

func TestOSSetPolicyFirstTouchPrimesFreeList(t *testing.T) {
	_, d := testDomain(t)
	g := NewOS(d, 64)
	// Allocate a page that stays in use across the switch.
	used, _, err := g.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	cost, err := g.SetPolicy(policy.Config{Static: policy.FirstTouch})
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("free-list flush cost not charged")
	}
	if !g.QueueActive() {
		t.Fatal("queue not active under first-touch")
	}
	// The in-use page must survive; a free page must be invalidated.
	if _, ok := d.NodeOfPFN(used); !ok {
		t.Fatal("in-use page invalidated by the free-list flush")
	}
	invalidated := 0
	for p := uint64(64); p < d.PhysPages(); p++ {
		if _, ok := d.NodeOfPFN(mem.PFN(p)); !ok {
			invalidated++
		}
	}
	if invalidated == 0 {
		t.Fatal("no free page invalidated after switching to first-touch")
	}
}

func TestOSAllocFreeNotifiesOnlyWhenActive(t *testing.T) {
	_, d := testDomain(t)
	g := NewOS(d, 64)
	if _, _, err := g.AllocPage(); err != nil {
		t.Fatal(err)
	}
	if g.Queue.Pending() != 0 {
		t.Fatal("queue used while inactive")
	}
	g.SetPolicy(policy.Config{Static: policy.FirstTouch}) // flushes the queues
	g.AllocPage()
	if g.Queue.Pending() != 1 {
		t.Fatalf("queued ops = %d, want 1", g.Queue.Pending())
	}
}

func TestChurnModelUnbatchedDividesBy3(t *testing.T) {
	// §4.2.3: one release per 15 µs per core with a hypercall per
	// release divides wrmem's performance by ~3.
	m := ChurnModel{Cfg: QueueConfig{Queues: 1, BatchSize: 1, Unbatched: true}, Threads: 48}
	slowdown := 1 + m.OverheadFraction(15000)
	if slowdown < 2.5 || slowdown > 3.7 {
		t.Fatalf("unbatched slowdown = %.2fx, want ~3x", slowdown)
	}
}

func TestChurnModelBatchedIsCheap(t *testing.T) {
	m := ChurnModel{Cfg: DefaultQueueConfig(), Threads: 48}
	frac := m.OverheadFraction(15000)
	if frac > 0.10 {
		t.Fatalf("batched overhead = %.3f, want < 0.10", frac)
	}
}

func TestChurnModelGlobalQueueWorseThanPartitioned(t *testing.T) {
	global := ChurnModel{Cfg: QueueConfig{Queues: 1, BatchSize: 64}, Threads: 48}
	part := ChurnModel{Cfg: DefaultQueueConfig(), Threads: 48}
	g := global.PerReleaseNs(15000)
	p := part.PerReleaseNs(15000)
	if g <= p {
		t.Fatalf("global queue (%v ns) not worse than partitioned (%v ns)", g, p)
	}
}

func TestChurnModelZeroRate(t *testing.T) {
	m := ChurnModel{Cfg: DefaultQueueConfig(), Threads: 48}
	if m.OverheadFraction(0) != 0 {
		t.Fatal("zero rate has overhead")
	}
}

// TestQuickQueueNeverLosesOps property-tests that every added op reaches
// the hypervisor across flushes: under first-touch, every released page
// ends invalid and nothing stays queued. Each case cycles through its
// generated pages for at least four full batches of releases, so some
// queue fills and flushes mid-sequence, which the case checks.
func TestQuickQueueNeverLosesOps(t *testing.T) {
	_, d := testDomain(t)
	if _, err := d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch}); err != nil {
		t.Fatal(err)
	}
	check := func(pfns []uint16) bool {
		if len(pfns) == 0 {
			pfns = []uint16{0}
		}
		q := NewPageQueue(d)
		flushed := false
		for i := 0; i < max(len(pfns), queueCount*batchSize); i++ {
			pfn := mem.PFN(uint64(pfns[i%len(pfns)]) % d.PhysPages())
			d.Touch(pfn, 0) // valid again, whatever an earlier add left
			flushed = q.Add(policy.OpRelease, pfn) > CostQueueAdd || flushed
		}
		if !flushed {
			return false
		}
		q.FlushAll()
		for _, p := range pfns {
			if _, ok := d.NodeOfPFN(mem.PFN(uint64(p) % d.PhysPages())); ok {
				return false
			}
		}
		return q.Pending() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestChurnModelMatchesEventLevelDriver cross-checks the analytic model
// against the real queue protocol: at negligible offered load (no lock
// contention), the model's per-release cost must equal the measured
// average cost of driving the actual partitioned queues.
func TestChurnModelMatchesEventLevelDriver(t *testing.T) {
	_, d := testDomain(t)
	d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch})
	q := NewPageQueue(d)
	const ops = 4 * 64 * 10 // forty full batches
	var total sim.Time
	for i := 0; i < ops; i++ {
		// Alternate alloc/release over distinct pages so flushes carry
		// half releases, like steady-state churn.
		kind := policy.OpAlloc
		if i%2 == 1 {
			kind = policy.OpRelease
		}
		total += q.Add(kind, mem.PFN(i%1024))
	}
	total += q.FlushAll()
	measured := float64(total) / ops

	m := ChurnModel{Cfg: DefaultQueueConfig(), Threads: 1}
	predicted := m.PerReleaseNs(1e9) // one op per second: no contention
	// The model assumes all-release batches (64 invalidations); the
	// measured stream invalidates half as many entries, so the model
	// must bracket the measurement from above within the invalidation
	// share.
	if measured > predicted {
		t.Fatalf("event-level cost %v ns/op exceeds the model's uncontended %v ns/op", measured, predicted)
	}
	if measured < predicted/2 {
		t.Fatalf("event-level cost %v ns/op below half the model (%v): model diverged", measured, predicted)
	}
}
