package xennuma

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/policy"
)

// audit checks, after a run, that the engine's view of placement agrees
// with the layers that own it: each region page's engine node (written
// by Region.AddPage and SetNode) must be the node of the machine frame
// the hypervisor page table or the native allocator says backs it, and
// no frame may back two pages. Under Xen, while the guest forwards its
// page traffic (a page-queue policy such as first-touch), every page on
// the guest's free list must have no valid hypervisor entry, so that
// its next touch faults into the policy (§4.2.2). Both platforms also
// check frame conservation: the allocator's free bytes plus the bytes
// the layers above hold are the machine's memory. Under Xen the
// hypervisor holds them, in its domains' block records and owned
// entries (dom0's included); natively, one page per region page. Each
// guest domain must also have the passthrough driver exactly when its
// run asked for it and its policy allows it (see wantPassthrough).
type audit struct {
	checks, free, passthrough, migrated, failed int
	frames                                      map[mem.MFN]bool
	failures                                    []string // the first ten
}

func (a *audit) fail(format string, args ...any) {
	a.failed++
	if len(a.failures) < 10 {
		a.failures = append(a.failures, fmt.Sprintf(format, args...))
	}
}

// wantPassthrough reports whether the domain of a run under pol has the
// passthrough driver: only a Xen+ run requests it, and the registry
// says whether pol boots an eager layout and keeps every entry valid
// (no page queue), as the IOMMU needs (§4.4.1).
func wantPassthrough(pol Policy, xenPlus bool) bool {
	boot, err := policy.BootKind(pol.Static)
	if err != nil {
		panic(err)
	}
	bootDesc, _, _ := policy.Describe(boot)
	desc, _, _ := policy.Describe(pol.Static)
	return xenPlus && bootDesc.Boot != nil && !desc.UsesPageQueue
}

// xen audits the machine the pool holds under key after a run with one
// guest per policy of pols, Xen+ or not, which it reports as what.
func (a *audit) xen(p *Pool, key poolKey, xenPlus bool, what string, pols ...Policy) {
	m := p.free[key][len(p.free[key])-1]
	clear(a.frames)
	for slot, pol := range pols {
		dom := m.backs[slot].Dom
		a.passthrough++
		if got, want := dom.Passthrough(), wantPassthrough(pol, xenPlus); got != want {
			a.fail("%s: VM %d passthrough %v, want %v", what, slot, got, want)
		}
		for _, r := range m.insts[slot].Regions() {
			for i, pfn := range r.Pages {
				a.checks++
				node, ok := dom.NodeOfPFN(pfn)
				if !ok || node != r.NodeOf(i) {
					a.fail("%s: VM %d %s page %d (PFN %d): engine node %d, hypervisor node %d (valid %v)", what, slot, r.Name, i, pfn, r.NodeOf(i), node, ok)
					continue
				}
				mfn, _ := dom.Table().TranslateNoFault(pfn)
				if a.frames[mfn] {
					a.fail("%s: VM %d %s page %d (PFN %d): frame %d backs two pages", what, slot, r.Name, i, pfn, mfn)
				}
				a.frames[mfn] = true
			}
		}
		if g := m.backs[slot].OS; g.QueueActive() {
			g.Phys.ForEachFree(func(pfn mem.PFN) {
				a.checks++
				a.free++
				if node, ok := dom.NodeOfPFN(pfn); ok {
					a.fail("%s: VM %d free PFN %d is mapped on node %d under a page-queue policy", what, slot, pfn, node)
				}
			})
		}
	}
	if free, held, total := m.hv.Alloc.TotalFreeBytes(), m.hv.HeldBytes(), m.hv.Topo.TotalMemory(); free+held != total {
		a.fail("%s: %d bytes free plus %d held by the domains, machine has %d", what, free, held, total)
	}
}

// native audits the scale's native machine after a run.
func (a *audit) native(p *Pool, key poolKey, what string) {
	m := p.free[key][len(p.free[key])-1]
	alloc := m.native.Alloc
	clear(a.frames)
	for _, r := range m.insts[0].Regions() {
		for i, pfn := range r.Pages {
			a.checks++
			mfn := mem.MFN(pfn)
			if node := alloc.NodeOf(mfn); node != r.NodeOf(i) {
				a.fail("%s: %s page %d (frame %d): engine node %d, allocator node %d", what, r.Name, i, mfn, r.NodeOf(i), node)
			}
			if a.frames[mfn] {
				a.fail("%s: %s page %d: frame %d backs two pages", what, r.Name, i, mfn)
			}
			a.frames[mfn] = true
		}
	}
	held := int64(len(a.frames)) * mem.PageSize
	if free, total := alloc.TotalFreeBytes(), m.native.Topo.TotalMemory(); free+held != total {
		a.fail("%s: %d bytes free plus %d held by region pages, machine has %d", what, free, held, total)
	}
}

// TestCrossLayerAudit runs every registered policy, and its Carrefour
// form where Carrefour stacks, under Xen+ and natively where the policy
// runs natively, plus a colocated and a consolidated pair, all on one
// warm pool so every lease but the first audits a reset machine. Each
// policy's first app also runs under plain Xen, between Xen+ leases of
// the same machine. After each run it audits the machine before the
// next lease (see audit).
func TestCrossLayerAudit(t *testing.T) {
	const scale = 512
	o := Options{Scale: scale, XenPlus: true, Pool: NewPool()}
	plain := o
	plain.XenPlus = false
	xenKey := poolKey{scale: scale}
	nativeKey := poolKey{scale: scale, native: true}
	a := audit{frames: map[mem.MFN]bool{}}
	for _, d := range policy.List() {
		pols := []string{d.DefaultSpelling()}
		if d.Carrefour {
			pols = append(pols, d.DefaultSpelling()+"/carrefour")
		}
		for _, spelling := range pols {
			pol := MustPolicy(spelling)
			for i, app := range []string{"cg.C", "streamcluster", "wc", "facesim"} {
				r, err := RunXen(app, pol, o)
				if err != nil {
					t.Fatalf("xen %s %s: %v", app, spelling, err)
				}
				a.migrated += int(r.Migrated)
				a.xen(o.Pool, xenKey, true, "xen+ "+app+" "+spelling, pol)
				if i == 0 {
					if r, err = RunXen(app, pol, plain); err != nil {
						t.Fatalf("plain xen %s %s: %v", app, spelling, err)
					}
					a.migrated += int(r.Migrated)
					a.xen(o.Pool, xenKey, false, "xen "+app+" "+spelling, pol)
				}
				if d.BootOnly {
					continue // a boot layout has no native form
				}
				if r, err = RunLinux(app, pol, o); err != nil {
					t.Fatalf("linux %s %s: %v", app, spelling, err)
				}
				a.migrated += int(r.Migrated)
				a.native(o.Pool, nativeKey, "linux "+app+" "+spelling)
			}
		}
	}
	pol1, pol2 := MustPolicy("round-4k/carrefour"), MustPolicy("first-touch/carrefour")
	for _, mode := range []PairMode{Colocated, Consolidated} {
		r1, r2, err := RunXenPair("wc", pol1, "cg.C", pol2, mode, false, o)
		if err != nil {
			t.Fatalf("pair mode %d: %v", mode, err)
		}
		a.migrated += int(r1.Migrated + r2.Migrated)
		a.xen(o.Pool, xenKey, true, fmt.Sprintf("pair mode %d", mode), pol1, pol2)
	}
	for _, f := range a.failures {
		t.Error(f)
	}
	t.Logf("%d page checks (%d of free pages), %d passthrough checks, %d failed, %d pages migrated", a.checks, a.free, a.passthrough, a.failed, a.migrated)
	// Guard against a vacuous audit: it must see a large machine state
	// that Carrefour has moved pages through, and free lists under a
	// page-queue policy.
	if a.checks < 200_000 || a.free == 0 || a.migrated == 0 {
		t.Errorf("audit made %d page checks (%d of free pages) over runs that migrated %d pages; want at least 200000 checks, some of free pages, and some migrations", a.checks, a.free, a.migrated)
	}
}
