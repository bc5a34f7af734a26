package xen

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
)

func extTestDomain(t *testing.T) (*Hypervisor, *Domain) {
	t.Helper()
	hv := testHV(t)
	d, err := hv.CreateDomain(DomainSpec{
		Name: "ext", VCPUs: 4, MemBytes: 8 << 20,
		PinCPUs: []numa.CPUID{0, 4, 8, 12}, Boot: policy.Round4K,
	})
	if err != nil {
		t.Fatal(err)
	}
	return hv, d
}

func TestBalloonInflateDeflate(t *testing.T) {
	hv, d := extTestDomain(t)
	b := NewBalloon(d)
	free := hv.Alloc.TotalFreeBytes()
	const pfn = mem.PFN(100)
	if err := b.Inflate(pfn); err != nil {
		t.Fatal(err)
	}
	// The frame went back to the machine allocator — that is the whole
	// point of ballooning, and why a ballooned page is NOT a usable
	// guest free page (§4.2.3).
	if hv.Alloc.TotalFreeBytes() != free+mem.PageSize {
		t.Fatal("inflation did not release the frame")
	}
	if _, ok := d.NodeOfPFN(pfn); ok {
		t.Fatal("ballooned page still mapped")
	}
	if !b.Held(pfn) || b.Size() != 1 {
		t.Fatal("balloon bookkeeping wrong")
	}
	if err := b.Inflate(pfn); err == nil {
		t.Fatal("double inflation accepted")
	}
	if err := b.Deflate(pfn); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.NodeOfPFN(pfn); !ok {
		t.Fatal("deflated page not repopulated")
	}
	if err := b.Deflate(pfn); err == nil {
		t.Fatal("double deflation accepted")
	}
}

func TestBalloonInadequateForFirstTouch(t *testing.T) {
	// The paper's argument (§4.2.3): with ballooning, a "released" page
	// cannot be reallocated by the guest at will — any access before a
	// deflate hypercall faults with no policy able to resolve it into
	// the guest's expectations. The page-queue hypercall keeps the page
	// guest-usable: the next touch simply faults into first-touch.
	_, d := extTestDomain(t)
	d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch})
	b := NewBalloon(d)

	// Page-queue path: release then reuse works transparently.
	d.HypercallPageQueue([]policy.PageOp{{Kind: policy.OpRelease, PFN: 200}})
	if node, _ := d.Touch(200, 2, true); node != 2 {
		t.Fatal("page-queue release broke guest reuse")
	}

	// Balloon path: the guest must NOT touch the page before deflating;
	// the hypervisor would have to guess, and real Xen injects a fault
	// into the guest. Here the balloon still holds the page.
	if err := b.Inflate(201); err != nil {
		t.Fatal(err)
	}
	if !b.Held(201) {
		t.Fatal("balloon lost the page")
	}
	// Reuse requires an explicit deflate hypercall first.
	if err := b.Deflate(201); err != nil {
		t.Fatal(err)
	}
}

func TestGrantLifecycle(t *testing.T) {
	_, d := extTestDomain(t)
	gt := NewGrantTable(d)
	ref, err := gt.GrantAccess(0, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	mfn, err := gt.Map(0, ref)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := d.table.TranslateNoFault(50); got != mfn {
		t.Fatal("grant mapped the wrong frame")
	}
	// Wrong grantee refused.
	if _, err := gt.Map(DomID(9), ref); err == nil {
		t.Fatal("foreign domain mapped the grant")
	}
	// Revocation refused while mapped.
	if err := gt.EndAccess(ref); err == nil {
		t.Fatal("EndAccess succeeded with outstanding mappings")
	}
	if err := gt.Unmap(ref); err != nil {
		t.Fatal(err)
	}
	if err := gt.EndAccess(ref); err != nil {
		t.Fatal(err)
	}
	if gt.Active() != 0 {
		t.Fatal("grant leaked")
	}
}

func TestGrantPinsAgainstMigration(t *testing.T) {
	_, d := extTestDomain(t)
	gt := NewGrantTable(d)
	const pfn = mem.PFN(60)
	from, _ := d.NodeOfPFN(pfn)
	to := numa.NodeID((int(from) + 1) % 4)
	ref, _ := gt.GrantAccess(0, pfn, false)
	if _, err := gt.Map(0, ref); err != nil {
		t.Fatal(err)
	}
	if d.MigratePage(pfn, to) {
		t.Fatal("migrated a granted (pinned) I/O buffer")
	}
	// First-touch invalidation must also skip the pinned page —
	// otherwise the in-flight DMA would abort through the IOMMU
	// (§4.4.1).
	d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch})
	d.HypercallPageQueue([]policy.PageOp{{Kind: policy.OpRelease, PFN: pfn}})
	if _, ok := d.NodeOfPFN(pfn); !ok {
		t.Fatal("pinned page invalidated under first-touch")
	}
	// After unmapping, migration works again.
	gt.Unmap(ref)
	if !d.MigratePage(pfn, to) {
		t.Fatal("unpinned page still refuses migration")
	}
}

func TestGrantUnpopulatedPageRejected(t *testing.T) {
	_, d := extTestDomain(t)
	gt := NewGrantTable(d)
	d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch})
	d.HypercallPageQueue([]policy.PageOp{{Kind: policy.OpRelease, PFN: 70}})
	if _, err := gt.GrantAccess(0, 70, false); err == nil {
		t.Fatal("granted an invalidated page (the IOMMU conflict, §4.4.1)")
	}
}

// TestGrantBeyondPhysicalSpaceRejected: a guest-supplied PFN past the
// end of the domain's physical space is refused like an unpopulated
// page. The frame-indexed table reports it invalid instead of indexing
// past its end.
func TestGrantBeyondPhysicalSpaceRejected(t *testing.T) {
	_, d := extTestDomain(t)
	gt := NewGrantTable(d)
	for _, pfn := range []mem.PFN{mem.PFN(d.PhysPages()), 1 << 40} {
		if _, err := gt.GrantAccess(0, pfn, false); err == nil {
			t.Fatalf("granted PFN %d beyond the %d-page physical space", pfn, d.PhysPages())
		}
	}
}
