// Package xen models the hypervisor: domain lifecycle (dom0 and domU),
// vCPUs pinned to the physical CPUs the caller names (the evaluation
// pins every vCPU, §5.4.1, so there is no home-node packing), the eager
// memory allocation of the round-1G default policy, the hypervisor page
// table per domain with its fault path into the policy, the two
// hypercalls of the paper's external interface, and the copy → remap
// page-migration mechanism of the internal interface.
package xen

import (
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/pt"
	"repro/internal/sim"
)

// fiReplay is the fault site at the dom0 frame replay of Reset: an
// injected fault stands in for a replay divergence, so the warm pool's
// drop-and-cold-build degradation is testable on demand.
var fiReplay = faultinject.Register("xen.replay")

// DomID identifies a domain. Dom0 is always domain 0.
type DomID int

// Config tunes the hypervisor for a (possibly scaled-down) machine: the
// region orders of its boot layouts, which follow from the machine's
// scale alone. What a domain gets, such as the passthrough driver, is
// the domain's setting (DomainSpec).
type Config struct {
	// HugeOrder is the buddy order of the "1 GiB" allocation regions of
	// the round-1G policy. On a full-size machine this is mem.Order1G;
	// scaled-down simulations shrink it in lockstep with the node bank
	// size so the policy keeps its shape.
	HugeOrder int
	// MidOrder is the order of the "2 MiB" fallback regions.
	MidOrder int
}

// DefaultConfig returns the configuration for the unscaled AMD48.
func DefaultConfig() Config {
	return Config{HugeOrder: mem.Order1G, MidOrder: mem.Order2M}
}

// ScaledConfig shrinks the region orders by log2(scale) to match a
// machine whose node banks were divided by scale. Scale must be a power
// of two between 1 and 512.
func ScaledConfig(scale int) Config {
	shift := 0
	for s := scale; s > 1; s >>= 1 {
		if s%2 != 0 {
			panic(fmt.Sprintf("xen: scale %d is not a power of two", scale))
		}
		shift++
	}
	if shift > 9 {
		panic(fmt.Sprintf("xen: scale %d too large", scale))
	}
	cfg := DefaultConfig()
	cfg.HugeOrder -= shift
	cfg.MidOrder -= shift
	if cfg.MidOrder < 0 {
		cfg.MidOrder = 0
	}
	return cfg
}

// Cost model of hypervisor operations, in virtual time. The page-queue
// costs are chosen so that a full 64-entry batch spends 87.5 % of its
// time invalidating entries and 12.5 % sending the queue, the split the
// paper measures in §4.2.4.
const (
	// CostHypercall is the fixed world-switch cost of any hypercall
	// (guest → hypervisor → guest).
	CostHypercall = 1 * sim.Microsecond
	// CostQueueSend is the cost of transferring one page-queue batch to
	// the hypervisor, excluding per-entry processing.
	CostQueueSend = 2200 * sim.Nanosecond
	// CostInvalidateEntry is the per-page cost of invalidating a
	// hypervisor page-table entry (locking, PTE clear, TLB shootdown
	// share). 64 entries × 350 ns = 22.4 µs vs 3.2 µs of send+hypercall:
	// 87.5 % / 12.5 %.
	CostInvalidateEntry = 350 * sim.Nanosecond
	// CostHVFault is a hypervisor page fault round trip (VM exit,
	// walk, resolve, VM entry), excluding frame allocation.
	CostHVFault = 1500 * sim.Nanosecond
	// CostFrameAlloc is one buddy allocation inside the hypervisor.
	CostFrameAlloc = 300 * sim.Nanosecond
)

// Hypervisor owns the machine.
type Hypervisor struct {
	Topo  *numa.Topology
	Alloc *mem.Allocator
	Cfg   Config

	// domains is indexed by DomID: IDs are dense, and only Reset
	// removes domains.
	domains []*Domain
	// cpuUse counts vCPUs assigned to each physical CPU (several in
	// consolidated setups).
	cpuUse []int

	// shells holds stripped domain carcasses left behind by Reset;
	// newDomain pops one and resets its page table in place instead of
	// allocating a fresh one. Empty outside warm-pool use, so cold-build
	// paths are untouched.
	shells []*Domain
}

// New boots a hypervisor on topo. It creates dom0 pinned to the CPUs of
// node 0 (the paper's setting, §5.2) holding dom0MemBytes of memory
// placed on node 0.
func New(topo *numa.Topology, cfg Config, dom0MemBytes int64) (*Hypervisor, error) {
	h := &Hypervisor{
		Topo:   topo,
		Alloc:  mem.NewAllocator(topo),
		Cfg:    cfg,
		cpuUse: make([]int, topo.NumCPUs()),
	}
	spec := DomainSpec{
		Name:     "dom0",
		MemBytes: dom0MemBytes,
		PinCPUs:  append([]numa.CPUID(nil), topo.Nodes[0].CPUs...),
		Boot:     policy.Round1G,
	}
	if _, err := h.CreateDomain(spec); err != nil {
		return nil, fmt.Errorf("xen: creating dom0: %w", err)
	}
	return h, nil
}

// DomainSpec describes a domain to create.
type DomainSpec struct {
	Name     string
	MemBytes int64
	// PinCPUs gives the domain one vCPU per entry and pins vCPU i to
	// PinCPUs[i]; it must not be empty.
	PinCPUs []numa.CPUID
	// Boot selects the boot-time memory layout: any registered policy
	// kind that may be booted — eagerly placed like Round4K (the
	// paper's default, §4.2.1) or Round1G (Xen's stock behaviour, kept
	// as a boot option and the default when empty), or lazily for kinds
	// without a boot placer (every entry starts invalid and faults into
	// the policy). Runtime-only kinds such as FirstTouch are rejected.
	Boot policy.Kind
	// Passthrough requests the PCI passthrough driver for the domain's
	// I/O (Xen+, §5.3). The IOMMU cannot resolve an invalid entry
	// (§4.4.1), so a domain gets the driver only with an eager boot
	// layout, and loses it when it selects a page-queue policy.
	Passthrough bool
}

// CreateDomain builds a domain: pins its vCPUs, takes their nodes as
// home nodes, eagerly populates the physical address space according to
// the boot policy, and installs the matching runtime policy.
func (h *Hypervisor) CreateDomain(spec DomainSpec) (*Domain, error) {
	if len(spec.PinCPUs) == 0 {
		return nil, fmt.Errorf("xen: domain %q needs at least one vCPU", spec.Name)
	}
	if spec.MemBytes < mem.PageSize {
		return nil, fmt.Errorf("xen: domain %q needs at least one page", spec.Name)
	}
	if spec.Boot == "" {
		spec.Boot = policy.Round1G // Xen's stock default layout
	}
	// Resolve once and keep the canonical kind: bootKind is compared
	// against runtime policies later, and an alias spelling ("r1g")
	// must not defeat those checks.
	bdesc, _, bootCanon, err := policy.Resolve(spec.Boot)
	if err != nil {
		return nil, fmt.Errorf("xen: domain %q: %w", spec.Name, err)
	}
	spec.Boot = bootCanon
	if bdesc.RuntimeOnly {
		return nil, fmt.Errorf("xen: %s is not a boot layout; boot round-4K and switch (§4.2.1)", spec.Boot)
	}
	pol, err := policy.New(spec.Boot, h.Topo.NumNodes())
	if err != nil {
		return nil, fmt.Errorf("xen: domain %q: %w", spec.Name, err)
	}
	d := newDomain(h, DomID(len(h.domains)), spec, bdesc.Boot, pol)
	if err := d.populate(); err != nil {
		d.releaseFrames()
		return nil, fmt.Errorf("xen: populating domain %q: %w", spec.Name, err)
	}
	h.domains = append(h.domains, d)
	// Dom0 is mostly idle (it only backs I/O) and the paper pins it to
	// node 0 alongside guest vCPUs; it does not count against CPU
	// shares.
	if d.ID != 0 {
		for _, c := range spec.PinCPUs {
			h.cpuUse[c]++
		}
	}
	return d, nil
}

// CPULoad returns the number of vCPUs sharing physical CPU c.
func (h *Hypervisor) CPULoad(c numa.CPUID) int { return h.cpuUse[c] }

// HeldBytes returns the machine memory the domains hold: every frame of
// each domain's block records plus every frame an Owned entry maps. A
// frame of a block whose page was invalidated or migrated away stays
// with its block until teardown, so it counts once.
func (h *Hypervisor) HeldBytes() int64 {
	var frames uint64
	for _, d := range h.domains {
		for _, f := range d.frames {
			frames += mem.FramesOf(f.order)
		}
		d.table.Walk(func(_ mem.PFN, e pt.HypervisorEntry) {
			if e.Owned {
				frames++
			}
		})
	}
	return int64(frames) * mem.PageSize
}

// takeShell pops a recycled domain shell, or returns nil when none is
// available (the cold-build case). Reset leaves the lowest domain ID's
// shell on top.
func (h *Hypervisor) takeShell() *Domain {
	if n := len(h.shells); n > 0 {
		d := h.shells[n-1]
		h.shells[n-1] = nil
		h.shells = h.shells[:n-1]
		return d
	}
	return nil
}

// Reset returns the hypervisor to its just-booted state so a warm-pool
// lease can build new guest domains on it: every domU is torn down (its
// storage kept as a shell for the next CreateDomain), the buddy
// allocator is restored to pristine shape wholesale, and dom0's boot
// allocations are replayed on top so the machine's free memory is
// bit-identical to a freshly booted hypervisor's.
//
// Reset requires that dom0 holds only block allocations from boot (no
// entry marked Owned), which is true in every cell: nothing runs a
// policy on dom0. It returns an error — rather than reconstruct an
// unknowable allocation order, or kill the process — when that
// precondition fails or the frame replay diverges; a hypervisor whose
// Reset errored is no longer bit-identical to a cold boot and must be
// discarded (the warm pool drops it and cold-builds).
func (h *Hypervisor) Reset() error {
	// Shells are pushed in descending ID order, so takeShell hands the
	// next lease's domain n the previous domain n's shell, whose page
	// table already has that domain's size.
	for id := len(h.domains) - 1; id >= 1; id-- {
		h.domains[id].recycleShell()
		h.shells = append(h.shells, h.domains[id])
	}
	h.domains = h.domains[:1]
	for i := range h.cpuUse {
		h.cpuUse[i] = 0
	}

	dom0 := h.domains[0]
	pageOwned := false
	dom0.table.Walk(func(_ mem.PFN, e pt.HypervisorEntry) {
		pageOwned = pageOwned || e.Owned
	})
	if pageOwned {
		return fmt.Errorf("xen: Reset with page-grained dom0 allocations")
	}
	// Restore the allocator to pristine shape, then replay dom0's boot
	// allocations in their original order. The buddy allocator is
	// deterministic in its state, so each replayed Alloc must return the
	// frame dom0 already maps — any divergence means the pristine shape
	// was not restored and the machine would no longer be bit-identical
	// to a cold boot.
	h.Alloc.Reset()
	if err := fiReplay.Fire(); err != nil {
		return fmt.Errorf("xen: dom0 frame replay: %w", err)
	}
	for _, f := range dom0.frames {
		mfn, err := h.Alloc.Alloc(h.Alloc.NodeOf(f.mfn), f.order)
		if err != nil || mfn != f.mfn {
			return fmt.Errorf("xen: dom0 frame replay diverged: got %v/%v, want %d", mfn, err, f.mfn)
		}
	}
	dom0.nextAllocNode = 0
	return nil
}
