// Package linux models the native baseline: the same workloads running
// directly on the machine under Linux's own NUMA policies (every
// registered kind except boot-only layouts — first-touch, round-4K,
// interleave, bind:<node>, least-loaded, adaptive — each optionally
// with Carrefour). There is no hypervisor layer: "physical" pages are
// machine frames, placement happens at guest fault time exactly as
// Linux's lazy allocator does (§3.1–3.2), asking the same Placer the
// hypervisor's fault path asks, and migrations move frames directly.
package linux

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/iosim"
	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Native page-fault path cost (lazy allocation + zeroing at first touch).
const costFault = 1 * sim.Microsecond

// Backend is the native-Linux placement backend.
type Backend struct {
	Topo  *numa.Topology
	Alloc *mem.Allocator
	cfg   policy.Config
	// placer is the policy's registered placement decision and homes
	// every node, its candidates; rr is the backend's own fallback
	// rotor for full banks.
	placer policy.Placer
	homes  []numa.NodeID
	rr     int
}

// Rebuild builds a native backend for cfg on topo. The static policy
// must not be a boot-only layout (round-1G exists only as a hypervisor
// boot option) and any parameter must fit the machine (a bind node out
// of range is rejected here), so an unsupported configuration fails at
// construction rather than mid-run. A nil prev builds a new backend; a
// non-nil prev, the backend of an earlier lease of a pooled machine on
// topo whose allocator has since been Reset, is rebound to cfg in place,
// keeping its allocator and node list. The result behaves bit for bit
// like a newly built backend.
func Rebuild(prev *Backend, topo *numa.Topology, cfg policy.Config) (*Backend, error) {
	if err := policy.CheckConfig(cfg); err != nil {
		return nil, fmt.Errorf("linux: %w", err)
	}
	desc, arg, canon, err := policy.Resolve(cfg.Static)
	if err != nil {
		return nil, fmt.Errorf("linux: %w", err)
	}
	if desc.BootOnly {
		return nil, fmt.Errorf("linux: Linux has no %s policy", canon)
	}
	placer, err := desc.New(arg, topo.NumNodes())
	if err != nil {
		return nil, fmt.Errorf("linux: %w", err)
	}
	cfg.Static = canon
	b := prev
	if b == nil {
		homes := make([]numa.NodeID, topo.NumNodes())
		for i := range homes {
			homes[i] = numa.NodeID(i)
		}
		b = &Backend{Topo: topo, Alloc: mem.NewAllocator(topo), homes: homes}
	}
	b.cfg, b.placer, b.rr = cfg, placer, 0
	return b, nil
}

// Name reports the platform and policy.
func (b *Backend) Name() string { return "linux/" + b.cfg.String() }

// Place allocates n frames, asking the policy's placer for each page's
// preferred node (the toucher's node for first-touch, round-robin for
// round-4K/interleave, …) and falling back round-robin when the bank is
// full.
func (b *Backend) Place(r *engine.Region, n int, toucher numa.NodeID) (sim.Time, error) {
	var total sim.Time
	for i := 0; i < n; i++ {
		node := b.placer.PlaceNode(toucher, b.homes, b)
		mfn, err := b.allocNear(node)
		if err != nil {
			return total, err
		}
		r.AddPage(mem.PFN(mfn), b.Alloc.NodeOf(mfn))
		total += costFault
	}
	return total, nil
}

// NodeFreeBytes reports node's free memory, for load-aware placers.
func (b *Backend) NodeFreeBytes(node numa.NodeID) int64 { return b.Alloc.FreeBytes(node) }

// allocNear allocates on node, falling back round-robin like Linux.
func (b *Backend) allocNear(node numa.NodeID) (mem.MFN, error) {
	if mfn, err := b.Alloc.Alloc(node, mem.Order4K); err == nil {
		return mfn, nil
	}
	for i := 0; i < b.Topo.NumNodes(); i++ {
		n := numa.NodeID(b.rr % b.Topo.NumNodes())
		b.rr++
		if mfn, err := b.Alloc.Alloc(n, mem.Order4K); err == nil {
			return mfn, nil
		}
	}
	return mem.NoMFN, fmt.Errorf("linux: out of memory: %w", mem.ErrNoMemory)
}

// Migrate moves one page's frame to another node (Linux's migrate_pages
// path, used by Carrefour's system component).
func (b *Backend) Migrate(r *engine.Region, i int, to numa.NodeID) bool {
	old := mem.MFN(r.Page(i))
	if b.Alloc.NodeOf(old) == to {
		return false
	}
	mfn, err := b.Alloc.Alloc(to, mem.Order4K)
	if err != nil {
		return false
	}
	b.Alloc.Free(old, mem.Order4K)
	r.SetPage(i, mem.PFN(mfn))
	r.SetNode(i, to)
	return true
}

// ChurnOverhead is zero natively: releases stay inside the kernel.
func (b *Backend) ChurnOverhead(float64, int) float64 { return 0 }

// IO is the native path with a physically contiguous single-node buffer
// (§5.3.3).
func (b *Backend) IO() (iosim.Path, iosim.BufferPlacement) {
	return iosim.PathNative, iosim.BufferSingleNode
}

// Virtualized is false natively.
func (b *Backend) Virtualized() bool { return false }

// ThreadNode pins thread i to CPU i in machine order.
func (b *Backend) ThreadNode(i int) numa.NodeID {
	return b.Topo.NodeOf(numa.CPUID(i % b.Topo.NumCPUs()))
}

// CPUShare is 1: native runs are never consolidated in the paper.
func (b *Backend) CPUShare(int) float64 { return 1 }

// HomeNodes is every node.
func (b *Backend) HomeNodes() []numa.NodeID { return b.homes }
