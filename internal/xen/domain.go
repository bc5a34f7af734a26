package xen

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/pt"
	"repro/internal/sim"
)

// VCPU is one virtual CPU pinned to a physical CPU. The evaluation pins
// every vCPU (§5.4.1), so the model has no vCPU migration; consolidated
// setups simply pin several vCPUs to one physical CPU.
type VCPU struct {
	PCPU numa.CPUID
}

// Domain is one virtual machine.
type Domain struct {
	ID    DomID
	Name  string
	VCPUs []VCPU

	hv        *Hypervisor
	table     *pt.HypervisorTable
	homes     []numa.NodeID
	physPages uint64

	bootKind policy.Kind
	// bootPlacer is the boot layout's eager placement hook (nil for
	// lazily booted domains: every entry starts invalid and the first
	// access faults into the runtime policy).
	bootPlacer policy.BootPlacer
	cfg        policy.Config
	pol        *policy.Policy

	// frames tracks the block allocations backing this domain (boot
	// regions, recorded once each): Reset replays dom0's, and
	// releaseFrames returns them when populating the domain fails.
	// Frames allocated page by page — by a fault, a migration or
	// round-4K boot — are instead marked Owned in their hypervisor
	// entry, so releaseFrames frees each exactly once.
	frames []frameAlloc

	// nextAllocNode implements the round-robin fallback of first-touch
	// when the preferred node is full.
	nextAllocNode int

	// passthrough reports whether the PCI passthrough driver is active
	// for this domain's I/O: the domain requested it, booted eagerly
	// and has selected no page-queue policy since (§4.4.1).
	passthrough bool
}

type frameAlloc struct {
	mfn   mem.MFN
	order int
}

func newDomain(h *Hypervisor, id DomID, spec DomainSpec, boot policy.BootPlacer, pol *policy.Policy) *Domain {
	// A recycled shell (left behind by Hypervisor.Reset) carries the
	// previous domain's page-table array and slice capacities; refilling
	// it is bit-for-bit equivalent to a cold build, minus the
	// allocation.
	physPages := uint64(spec.MemBytes) / mem.PageSize
	d := h.takeShell()
	if d == nil {
		d = &Domain{table: pt.NewHypervisorTable(physPages)}
	} else {
		d.table.Reset(physPages)
	}
	d.ID = id
	d.Name = spec.Name
	d.hv = h
	d.physPages = physPages
	d.bootKind = spec.Boot
	d.bootPlacer = boot
	d.cfg = policy.Config{Static: spec.Boot}
	d.pol = pol
	for _, c := range spec.PinCPUs {
		d.VCPUs = append(d.VCPUs, VCPU{PCPU: c})
	}
	for _, c := range spec.PinCPUs {
		n := h.Topo.NodeOf(c)
		found := false
		for _, home := range d.homes {
			if home == n {
				found = true
				break
			}
		}
		if !found {
			d.homes = append(d.homes, n)
		}
	}
	// A lazily booted domain starts with every entry invalid; the IOMMU
	// cannot resolve invalid entries (§4.4.1), so passthrough is off
	// from the start.
	d.passthrough = spec.Passthrough && boot != nil
	return d
}

// recycleShell strips a domain down to its reusable storage — the
// page-table array, slice capacities — and clears everything else, so
// newDomain can refill it exactly as it fills a zero literal. The page
// table is left for newDomain to reset, once the next domain's size is
// known. The domain's frames are NOT returned to the allocator:
// recycling happens only from Hypervisor.Reset, which restores the
// whole allocator to pristine shape wholesale.
func (d *Domain) recycleShell() {
	d.frames = d.frames[:0]
	d.VCPUs = d.VCPUs[:0]
	d.homes = d.homes[:0]
	d.bootPlacer, d.pol = nil, nil
	d.nextAllocNode = 0
	d.passthrough = false
	d.hv = nil
	d.ID, d.Name = 0, ""
	d.physPages = 0
	d.bootKind = ""
	d.cfg = policy.Config{}
}

// populate eagerly builds the physical address space through the boot
// layout's placement hook; lazily booted domains place nothing here.
func (d *Domain) populate() error {
	if d.bootPlacer == nil {
		return nil
	}
	return d.bootPlacer(d)
}

// releaseFrames returns all machine memory to the allocator: the block
// records, then every owned page in one ascending PFN scan of the
// table. The order is fixed because each Free reshapes the buddy free
// lists, and every allocation after a release must be deterministic.
func (d *Domain) releaseFrames() {
	for _, f := range d.frames {
		d.hv.Alloc.Free(f.mfn, f.order)
	}
	d.frames = nil
	d.table.Walk(func(_ mem.PFN, e pt.HypervisorEntry) {
		if e.Owned {
			d.hv.Alloc.Free(e.MFN, mem.Order4K)
		}
	})
}

// --- policy.DomainOps (the internal interface, §4.1) ---

// HomeNodes returns the domain's home nodes.
func (d *Domain) HomeNodes() []numa.NodeID { return d.homes }

// AllocFrameOn allocates a 4 KiB machine frame on node, falling back
// round-robin to the home nodes then to every node, mirroring Linux's
// behaviour when the preferred bank is full (§3.1).
func (d *Domain) AllocFrameOn(node numa.NodeID) (mem.MFN, error) {
	if mfn, err := d.hv.Alloc.Alloc(node, mem.Order4K); err == nil {
		return mfn, nil
	}
	for range d.homes {
		n := d.homes[d.nextAllocNode%len(d.homes)]
		d.nextAllocNode++
		if n == node {
			continue
		}
		if mfn, err := d.hv.Alloc.Alloc(n, mem.Order4K); err == nil {
			return mfn, nil
		}
	}
	for i := 0; i < d.hv.Topo.NumNodes(); i++ {
		n := numa.NodeID(i)
		if mfn, err := d.hv.Alloc.Alloc(n, mem.Order4K); err == nil {
			return mfn, nil
		}
	}
	return mem.NoMFN, fmt.Errorf("xen: machine out of memory: %w", mem.ErrNoMemory)
}

// NodeFreeBytes reports the free machine memory on node, for
// load-aware policies.
func (d *Domain) NodeFreeBytes(node numa.NodeID) int64 { return d.hv.Alloc.FreeBytes(node) }

// --- policy.BootOps (eager boot placement) ---

// RegionOrders returns the hypervisor's scaled huge and mid region
// orders.
func (d *Domain) RegionOrders() (huge, mid int) { return d.hv.Cfg.HugeOrder, d.hv.Cfg.MidOrder }

// AllocRegion allocates one 2^order block on node, without fallback.
func (d *Domain) AllocRegion(node numa.NodeID, order int) (mem.MFN, error) {
	return d.hv.Alloc.Alloc(node, order)
}

// MapRegion maps the 2^order frames of block phys-contiguously starting
// at base. The block is recorded as a single allocation, so releaseFrames
// returns it whole; pages inside it individually invalidated later stay
// owned by the block record (see InvalidatePage).
func (d *Domain) MapRegion(base mem.PFN, block mem.MFN, order int) {
	d.frames = append(d.frames, frameAlloc{mfn: block, order: order})
	for i := uint64(0); i < mem.FramesOf(order); i++ {
		d.table.Map(base+mem.PFN(i), block+mem.MFN(i))
	}
}

// MapPage installs pfn→mfn and marks the entry Owned: the frame is
// freed with the page.
func (d *Domain) MapPage(pfn mem.PFN, mfn mem.MFN) { d.table.MapOwned(pfn, mfn) }

// InvalidatePage clears pfn's entry and frees its frame; the next access
// faults into the policy. Part of the first-touch implementation.
func (d *Domain) InvalidatePage(pfn mem.PFN) {
	e := d.table.Lookup(pfn)
	if !e.Valid {
		return
	}
	d.table.Invalidate(pfn)
	if e.Owned {
		d.hv.Alloc.Free(e.MFN, mem.Order4K)
	}
	// Frames inside eager blocks (round-1G/round-4K boot regions) stay
	// owned by the block record; they are reused only after the block is
	// torn down. This wastes the frame but never double-frees — and is
	// exactly why the paper boots first-touch domains with round-4K.
}

// MigratePage implements the second function of the internal interface:
// copy the page, remap its entry on the target node and free the old
// frame (§4.1). It reports whether the page moved. Xen write-protects
// the entry for the copy, so that a concurrent guest write waits for
// the remap; no guest access runs during a simulated migration, so the
// entry is remapped in place.
func (d *Domain) MigratePage(pfn mem.PFN, to numa.NodeID) bool {
	e := d.table.Lookup(pfn)
	if !e.Valid {
		return false
	}
	if d.hv.Alloc.NodeOf(e.MFN) == to {
		return false
	}
	newMFN, err := d.hv.Alloc.Alloc(to, mem.Order4K)
	if err != nil {
		return false // target node full: leave the page where it is
	}
	// Copy happens here; the engine charges the copy's CPU time and its
	// interconnect traffic.
	d.table.MapOwned(pfn, newMFN)
	if e.Owned {
		d.hv.Alloc.Free(e.MFN, mem.Order4K)
	}
	return true
}

// --- guest-facing operations ---

// Policy returns the active policy configuration.
func (d *Domain) Policy() policy.Config { return d.cfg }

// Passthrough reports whether the PCI passthrough driver is active.
func (d *Domain) Passthrough() bool { return d.passthrough }

// PhysPages returns the size of the physical address space in pages.
func (d *Domain) PhysPages() uint64 { return d.physPages }

// NodeOfPCPU returns the node of vCPU v's physical CPU.
func (d *Domain) NodeOfPCPU(v int) numa.NodeID {
	return d.hv.Topo.NodeOf(d.VCPUs[v].PCPU)
}

// HypercallSetPolicy is the first hypercall of the external interface
// (§4.2.1): switch the static policy and/or toggle Carrefour. The
// target policy is resolved through the registry; boot-only layouts
// (round-1G) are rejected at run time, as in the paper. The returned
// duration is the cost charged to the calling vCPU.
//
// The Carrefour fields (on/off and variant) recorded here are the
// domain's guest-visible configuration; the simulation's Carrefour
// controller itself is configured per engine.Instance at build time,
// so — like toggling Carrefour — changing the variant mid-run updates
// Policy() but not an already-running engine's controller.
func (d *Domain) HypercallSetPolicy(cfg policy.Config) (sim.Time, error) {
	cost := CostHypercall
	// Canonicalize so aliases and case variants ("ft", "BIND:03")
	// compare equal to the stored boot/current kinds.
	desc, _, canon, err := policy.Resolve(cfg.Static)
	if err != nil {
		return cost, fmt.Errorf("xen: %w", err)
	}
	cfg.Static = canon
	if desc.BootOnly && d.bootKind != cfg.Static {
		return cost, fmt.Errorf("xen: %s is a boot option, not a runtime policy (§4.2.1)", cfg.Static)
	}
	// Config-shape rules (Carrefour stackability, variant validity) are
	// the registry's; only the boot-kind check above is domain-specific.
	if err := policy.CheckConfig(cfg); err != nil {
		return cost, fmt.Errorf("xen: %w", err)
	}
	// Build the new policy before any state changes: a rejected switch
	// must leave the domain untouched (in particular its passthrough
	// driver).
	var pol *policy.Policy
	if cfg.Static != d.cfg.Static {
		pol, err = policy.New(cfg.Static, d.hv.Topo.NumNodes())
		if err != nil {
			return cost, fmt.Errorf("xen: %w", err)
		}
	}
	if desc.UsesPageQueue {
		// §4.4.1: the IOMMU cannot resolve invalid entries, so the
		// passthrough driver must be disabled for entry-invalidating
		// policies.
		d.passthrough = false
	}
	if pol != nil {
		d.pol = pol
	}
	d.cfg = cfg
	return cost, nil
}

// HypercallPageQueue is the second hypercall of the external interface
// (§4.2.3): deliver one batched queue of page allocations and releases.
// The returned duration is the hypercall's cost, dominated by entry
// invalidation (§4.2.4).
func (d *Domain) HypercallPageQueue(ops []policy.PageOp) sim.Time {
	invalidated := d.pol.OnPageQueue(d, ops)
	return CostHypercall + CostQueueSend + sim.Time(invalidated)*CostInvalidateEntry
}

// Touch simulates one guest access to a physical page by a vCPU whose
// physical CPU sits on accessor. An invalid entry takes a hypervisor
// page fault, which the active policy resolves by mapping a frame. Touch
// returns the backing frame's node plus the time spent in the
// hypervisor (zero on the fast path).
func (d *Domain) Touch(pfn mem.PFN, accessor numa.NodeID) (numa.NodeID, sim.Time) {
	if pfn >= mem.PFN(d.physPages) {
		panic(fmt.Sprintf("xen: domain %q touching PFN %d beyond %d pages", d.Name, pfn, d.physPages))
	}
	if e := d.table.Lookup(pfn); e.Valid {
		return d.hv.Alloc.NodeOf(e.MFN), 0
	}
	mfn := d.pol.HandleFault(d, pfn, accessor)
	return d.hv.Alloc.NodeOf(mfn), CostHVFault + CostFrameAlloc
}

// NodeOfPFN returns the node currently backing pfn without faulting;
// ok is false when the entry is invalid.
func (d *Domain) NodeOfPFN(pfn mem.PFN) (numa.NodeID, bool) {
	mfn, ok := d.table.TranslateNoFault(pfn)
	if !ok {
		return 0, false
	}
	return d.hv.Alloc.NodeOf(mfn), true
}

// Table returns the domain's hypervisor page table, which the IOMMU
// walks for DMA (§4.4.1).
func (d *Domain) Table() *pt.HypervisorTable { return d.table }
