package xen

import (
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/sim"
)

// TestResetMatchesFreshHypervisor pins the xen half of the warm-pool
// reset protocol: after creating guest domains, faulting pages through a
// runtime policy and migrating some, Reset must leave the hypervisor
// bit-identical in behavior to a freshly booted one — same free memory
// per node, same next domain ID, no CPU load, and a subsequent
// CreateDomain sequence producing the same placements.
func TestResetMatchesFreshHypervisor(t *testing.T) {
	build := func() *Hypervisor { return testHV(t) }

	// churn returns how many pages it migrated and the summed cost of
	// its touches, which counts the faults they took.
	churn := func(hv *Hypervisor) (migrated int, touched sim.Time) {
		d, err := hv.CreateDomain(DomainSpec{
			Name: "u1", MemBytes: 16 << 20,
			PinCPUs: []numa.CPUID{0, 4, 8, 12},
			Boot:    policy.Round4K,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Switch to first-touch so the page queue invalidates entries
		// and faults re-place them page by page (page-grained ownership,
		// the hard case for allocator restoration).
		if _, err := d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch}); err != nil {
			t.Fatal(err)
		}
		ops := make([]policy.PageOp, 0, 64)
		for p := mem.PFN(0); p < 64; p++ {
			ops = append(ops, policy.PageOp{PFN: p, Kind: policy.OpRelease})
		}
		d.HypercallPageQueue(ops)
		for p := mem.PFN(0); p < 64; p++ {
			_, cost := d.Touch(p, numa.NodeID(int(p)%hv.Topo.NumNodes()))
			touched += cost
		}
		for p := mem.PFN(0); p < 16; p++ {
			if d.MigratePage(p, numa.NodeID(3)) {
				migrated++
			}
		}
		if _, err := hv.CreateDomain(DomainSpec{
			Name: "u2", MemBytes: 8 << 20, PinCPUs: []numa.CPUID{5, 6}, Boot: policy.Round1G,
		}); err != nil {
			t.Fatal(err)
		}
		return migrated, touched
	}

	hv := build()
	churn(hv)
	if err := hv.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}

	fresh := build()
	for n := 0; n < hv.Topo.NumNodes(); n++ {
		node := numa.NodeID(n)
		if got, want := hv.Alloc.FreeBytes(node), fresh.Alloc.FreeBytes(node); got != want {
			t.Errorf("node %d free bytes after Reset = %d, fresh = %d", n, got, want)
		}
	}
	if len(hv.domains) != len(fresh.domains) || hv.domains[0] == nil {
		t.Errorf("domains after Reset = %d, fresh = %d", len(hv.domains), len(fresh.domains))
	}
	for c := 0; c < hv.Topo.NumCPUs(); c++ {
		if hv.CPULoad(numa.CPUID(c)) != 0 {
			t.Errorf("CPU %d still loaded after Reset", c)
		}
	}

	// Rebuilding the same domains on the reset machine must reproduce a
	// fresh machine's placements exactly — shells and refilled maps must
	// not change a single frame.
	mr, cr := churn(hv)
	mf, cf := churn(fresh)
	dr, df := hv.domains[1], fresh.domains[1]
	if dr.PhysPages() != df.PhysPages() {
		t.Fatalf("phys pages diverge: %d vs %d", dr.PhysPages(), df.PhysPages())
	}
	for p := uint64(0); p < dr.PhysPages(); p++ {
		nr, okr := dr.NodeOfPFN(mem.PFN(p))
		nf, okf := df.NodeOfPFN(mem.PFN(p))
		if okr != okf || nr != nf {
			t.Fatalf("PFN %d placement diverges after Reset: (%v,%v) vs (%v,%v)", p, nr, okr, nf, okf)
		}
	}
	if cr != cf || mr != mf {
		t.Errorf("counters diverge after rebuild: touch cost %v/%v migrated %d/%d", cr, cf, mr, mf)
	}
}

// TestResetReplayDivergenceReturnsError pins the degradation contract
// of the xen.replay fault site: a divergence in the dom0 frame replay
// surfaces as an error from Reset — never a panic — so the warm pool
// can drop the machine and cold-build instead of taking the process
// down.
func TestResetReplayDivergenceReturnsError(t *testing.T) {
	plan, err := faultinject.Parse("xen.replay:hit=1:action=error")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Install(plan)
	defer faultinject.Install(nil)

	hv := testHV(t)
	if _, err := hv.CreateDomain(DomainSpec{
		Name: "u1", MemBytes: 8 << 20, PinCPUs: []numa.CPUID{4, 5}, Boot: policy.Round1G,
	}); err != nil {
		t.Fatal(err)
	}
	if err := hv.Reset(); err == nil || !strings.Contains(err.Error(), "frame replay") {
		t.Fatalf("Reset under injected replay fault = %v, want frame-replay error", err)
	}
	if plan.Fired("xen.replay") != 1 {
		t.Fatalf("site fired %d times, want 1", plan.Fired("xen.replay"))
	}
	// The fault fires once: the next Reset succeeds and the machine is
	// usable again (the allocator was restored before the injection
	// point, so this particular failure is recoverable in-test; real
	// divergences are not, which is why the pool drops the machine).
	if err := hv.Reset(); err != nil {
		t.Fatalf("second Reset: %v", err)
	}
}

// TestResetRejectsPageOwnedDom0 pins Reset's precondition: a dom0 entry
// marked Owned (here, a page migrated off its boot block) is an
// allocation the frame replay cannot reproduce, so Reset must refuse
// with an error instead of restoring a machine that differs from a
// cold boot.
func TestResetRejectsPageOwnedDom0(t *testing.T) {
	hv := testHV(t)
	if !hv.domains[0].MigratePage(0, 1) {
		t.Fatal("dom0 page 0 did not migrate to node 1")
	}
	if err := hv.Reset(); err == nil || !strings.Contains(err.Error(), "page-grained") {
		t.Fatalf("Reset with a page-owned dom0 entry = %v, want the page-grained error", err)
	}
}
