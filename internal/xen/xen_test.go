package xen

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
)

// testHV boots a hypervisor on a small 4-node machine with 64 MiB/node
// and scaled-down region orders (huge = 4 MiB, mid = 32 KiB).
func testHV(t *testing.T) *Hypervisor {
	t.Helper()
	topo := numa.SmallMachine(4, 4, 64<<20)
	cfg := Config{HugeOrder: 10, MidOrder: 3}
	hv, err := New(topo, cfg, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	return hv
}

func TestDom0Creation(t *testing.T) {
	hv := testHV(t)
	d0 := hv.domains[0]
	if d0 == nil || d0.ID != 0 {
		t.Fatal("dom0 missing")
	}
	// Dom0 is pinned to node 0 (§5.2).
	for _, v := range d0.VCPUs {
		if hv.Topo.NodeOf(v.PCPU) != 0 {
			t.Fatalf("dom0 vCPU on node %d", hv.Topo.NodeOf(v.PCPU))
		}
	}
	// Dom0 does not consume CPU shares.
	if hv.CPULoad(0) != 0 {
		t.Fatal("dom0 counted in CPU load")
	}
}

func TestCreateDomainRound4K(t *testing.T) {
	hv := testHV(t)
	d, err := hv.CreateDomain(DomainSpec{
		Name: "u1", MemBytes: 16 << 20,
		PinCPUs: []numa.CPUID{0, 4, 8, 12},
		Boot:    policy.Round4K,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.HomeNodes()) != 4 {
		t.Fatalf("home nodes = %v", d.HomeNodes())
	}
	// Every physical page must be mapped, spread round-robin.
	counts := make(map[numa.NodeID]int)
	for p := uint64(0); p < d.PhysPages(); p++ {
		node, ok := d.NodeOfPFN(mem.PFN(p))
		if !ok {
			t.Fatalf("PFN %d unmapped after round-4K boot", p)
		}
		counts[node]++
	}
	for n, c := range counts {
		if c != int(d.PhysPages())/4 {
			t.Fatalf("node %d holds %d pages, want %d", n, c, d.PhysPages()/4)
		}
	}
}

func TestCreateDomainRound1G(t *testing.T) {
	hv := testHV(t)
	// 24 MiB = 6 huge regions of 4 MiB; first and last are fragmented.
	d, err := hv.CreateDomain(DomainSpec{
		Name: "u1", MemBytes: 24 << 20,
		PinCPUs: []numa.CPUID{0, 4, 8, 12},
		Boot:    policy.Round1G,
	})
	if err != nil {
		t.Fatal(err)
	}
	hugeFrames := mem.FramesOf(hv.Cfg.HugeOrder)
	// A middle huge region must be phys-contiguously on one node.
	node0, _ := d.NodeOfPFN(mem.PFN(hugeFrames))
	for p := hugeFrames; p < 2*hugeFrames; p++ {
		node, ok := d.NodeOfPFN(mem.PFN(p))
		if !ok || node != node0 {
			t.Fatalf("middle huge region not node-contiguous at PFN %d", p)
		}
	}
	// Consecutive middle regions land on different nodes (round-robin).
	node1, _ := d.NodeOfPFN(mem.PFN(2 * hugeFrames))
	if node1 == node0 {
		t.Fatal("consecutive huge regions on the same node")
	}
	// The first "GiB" is fragmented: it must span several nodes.
	firstNodes := make(map[numa.NodeID]bool)
	for p := uint64(0); p < hugeFrames; p++ {
		n, _ := d.NodeOfPFN(mem.PFN(p))
		firstNodes[n] = true
	}
	if len(firstNodes) < 2 {
		t.Fatal("fragmented first GiB landed on a single node")
	}
}

func TestFirstTouchBootRejected(t *testing.T) {
	hv := testHV(t)
	_, err := hv.CreateDomain(DomainSpec{
		Name: "u1", MemBytes: 1 << 20,
		PinCPUs: []numa.CPUID{0}, Boot: policy.FirstTouch,
	})
	if err == nil {
		t.Fatal("first-touch accepted as boot layout")
	}
}

// TestCreateDomainNeedsPins: a domain gets one vCPU per pinned CPU, so
// a spec that pins none describes no vCPU and is rejected.
func TestCreateDomainNeedsPins(t *testing.T) {
	hv := testHV(t)
	if _, err := hv.CreateDomain(DomainSpec{Name: "u1", MemBytes: 1 << 20, Boot: policy.Round4K}); err == nil {
		t.Fatal("domain without pinned vCPUs accepted")
	}
	d, err := hv.CreateDomain(DomainSpec{
		Name: "u1", MemBytes: 1 << 20, PinCPUs: []numa.CPUID{4, 9, 10}, Boot: policy.Round4K,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.VCPUs) != 3 || d.VCPUs[1].PCPU != 9 || hv.CPULoad(10) != 1 {
		t.Fatalf("vCPUs = %v, CPU 10 load %d; want one vCPU per pin", d.VCPUs, hv.CPULoad(10))
	}
}

func TestSetPolicySwitchesAndDisablesPassthrough(t *testing.T) {
	hv := testHV(t)
	d, err := hv.CreateDomain(DomainSpec{
		Name: "u1", MemBytes: 4 << 20,
		PinCPUs: []numa.CPUID{0, 4}, Boot: policy.Round4K, Passthrough: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Passthrough() {
		t.Fatal("passthrough off although requested under an eager boot layout")
	}
	cost, err := d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch})
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("hypercall has no cost")
	}
	// §4.4.1: first-touch is incompatible with the IOMMU.
	if d.Passthrough() {
		t.Fatal("passthrough still on under first-touch")
	}
	if d.Policy().Static != policy.FirstTouch {
		t.Fatal("policy not switched")
	}
}

func TestSetPolicyRound1GRejectedAtRuntime(t *testing.T) {
	hv := testHV(t)
	d, _ := hv.CreateDomain(DomainSpec{
		Name: "u1", MemBytes: 4 << 20,
		PinCPUs: []numa.CPUID{0}, Boot: policy.Round4K,
	})
	if _, err := d.HypercallSetPolicy(policy.Config{Static: policy.Round1G}); err == nil {
		t.Fatal("runtime switch to round-1G accepted (§4.2.1 forbids it)")
	}
}

func TestPageQueueInvalidatesAndRefaults(t *testing.T) {
	hv := testHV(t)
	d, _ := hv.CreateDomain(DomainSpec{
		Name: "u1", MemBytes: 4 << 20,
		PinCPUs: []numa.CPUID{0, 4}, Boot: policy.Round4K,
	})
	if _, err := d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch}); err != nil {
		t.Fatal(err)
	}
	const pfn = mem.PFN(100)
	// Release the page: its entry must be invalidated.
	d.HypercallPageQueue([]policy.PageOp{{Kind: policy.OpRelease, PFN: pfn}})
	if _, ok := d.NodeOfPFN(pfn); ok {
		t.Fatal("released page still mapped")
	}
	// Touch from node 1: first-touch must place it there.
	node, cost := d.Touch(pfn, 1)
	if node != 1 {
		t.Fatalf("first-touch placed page on node %d, want 1", node)
	}
	if cost <= 0 {
		t.Fatal("fault cost not charged")
	}
	// Second touch from elsewhere must not move it.
	node, cost = d.Touch(pfn, 2)
	if node != 1 || cost != 0 {
		t.Fatalf("second touch moved page (node %d) or charged cost (%v)", node, cost)
	}
}

func TestPageQueueNewestOperationWins(t *testing.T) {
	hv := testHV(t)
	d, _ := hv.CreateDomain(DomainSpec{
		Name: "u1", MemBytes: 4 << 20,
		PinCPUs: []numa.CPUID{0}, Boot: policy.Round4K,
	})
	d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch})
	const pfn = mem.PFN(50)
	before, _ := d.NodeOfPFN(pfn)
	// Release then realloc in the same batch: the page may already be in
	// use, so its entry must be left intact (§4.2.4).
	d.HypercallPageQueue([]policy.PageOp{
		{Kind: policy.OpRelease, PFN: pfn},
		{Kind: policy.OpAlloc, PFN: pfn},
	})
	node, ok := d.NodeOfPFN(pfn)
	if !ok || node != before {
		t.Fatal("reallocated page was invalidated or moved")
	}
	// The reverse order (alloc then release) must invalidate.
	d.HypercallPageQueue([]policy.PageOp{
		{Kind: policy.OpAlloc, PFN: pfn},
		{Kind: policy.OpRelease, PFN: pfn},
	})
	if _, ok := d.NodeOfPFN(pfn); ok {
		t.Fatal("released page survived the batch")
	}
}

func TestMigratePage(t *testing.T) {
	hv := testHV(t)
	d, _ := hv.CreateDomain(DomainSpec{
		Name: "u1", MemBytes: 4 << 20,
		PinCPUs: []numa.CPUID{0, 4, 8, 12}, Boot: policy.Round4K,
	})
	const pfn = mem.PFN(10)
	from, _ := d.NodeOfPFN(pfn)
	to := numa.NodeID((int(from) + 1) % 4)
	if !d.MigratePage(pfn, to) {
		t.Fatal("migration refused")
	}
	if node, _ := d.NodeOfPFN(pfn); node != to {
		t.Fatalf("page on node %d after migration to %d", node, to)
	}
	// Migrating to the same node is a no-op.
	if d.MigratePage(pfn, to) {
		t.Fatal("same-node migration reported success")
	}
}

func TestDestroyDomainReleasesResources(t *testing.T) {
	hv := testHV(t)
	free := hv.Alloc.TotalFreeBytes()
	d, err := hv.CreateDomain(DomainSpec{
		Name: "u1", MemBytes: 16 << 20,
		PinCPUs: []numa.CPUID{0, 4, 8, 12}, Boot: policy.Round4K,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exercise first-touch churn before releasing so individually-owned
	// pages exist.
	d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch})
	d.HypercallPageQueue([]policy.PageOp{{Kind: policy.OpRelease, PFN: 1}})
	d.Touch(1, 2)
	d.releaseFrames()
	if got := hv.Alloc.TotalFreeBytes(); got != free {
		t.Fatalf("leak: free %d, want %d", got, free)
	}
}

func TestScaledConfig(t *testing.T) {
	cfg := ScaledConfig(64)
	if cfg.HugeOrder != mem.Order1G-6 || cfg.MidOrder != mem.Order2M-6 {
		t.Fatalf("scaled orders = %d/%d", cfg.HugeOrder, cfg.MidOrder)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two scale accepted")
		}
	}()
	ScaledConfig(3)
}

func TestHypercallCostsBatchSplit(t *testing.T) {
	// 64 invalidations must account for 87.5% of the full batch cost
	// (§4.2.4).
	invalidate := 64 * CostInvalidateEntry
	total := CostHypercall + CostQueueSend + invalidate
	ratio := float64(invalidate) / float64(total)
	if ratio < 0.87 || ratio > 0.88 {
		t.Fatalf("invalidation share = %.3f, want 0.875", ratio)
	}
}
