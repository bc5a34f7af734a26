package xen

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
)

// lazyDomain builds a domain booting the given (lazily placed) policy
// on a 4-node test hypervisor. Pins span all four nodes so every node
// is a home. The domain requests passthrough, which a lazy boot must
// refuse.
func lazyDomain(t *testing.T, boot policy.Kind) (*Hypervisor, *Domain) {
	t.Helper()
	hv := testHV(t)
	d, err := hv.CreateDomain(DomainSpec{
		Name: "lazy", MemBytes: 4 << 20,
		PinCPUs: []numa.CPUID{0, 4, 8, 12}, Boot: boot, Passthrough: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return hv, d
}

// touchDist touches the first n pages from accessor and histograms the
// resulting placement.
func touchDist(d *Domain, n int, accessor numa.NodeID) map[numa.NodeID]uint64 {
	dist := make(map[numa.NodeID]uint64)
	for p := 0; p < n; p++ {
		node, _ := d.Touch(mem.PFN(p), accessor)
		dist[node]++
	}
	return dist
}

// TestLazyBootFaultsIn: a registered policy without a boot placer boots
// with every entry invalid, faults pages in on first touch, and — since
// the IOMMU cannot resolve invalid entries — runs without passthrough,
// although the domain requested it.
func TestLazyBootFaultsIn(t *testing.T) {
	_, d := lazyDomain(t, policy.Interleave)
	if d.Passthrough() {
		t.Fatal("lazily booted domain kept PCI passthrough")
	}
	if _, ok := d.NodeOfPFN(0); ok {
		t.Fatal("lazy boot pre-populated an entry")
	}
	if _, cost := d.Touch(0, 2); cost != CostHVFault+CostFrameAlloc {
		t.Fatalf("first touch cost %v, want one fault (%v)", cost, CostHVFault+CostFrameAlloc)
	}
	if _, ok := d.NodeOfPFN(0); !ok {
		t.Fatal("fault did not fill the entry")
	}
	// The second touch is a fast-path hit.
	if _, cost := d.Touch(0, 2); cost != 0 {
		t.Fatalf("second touch cost %v, want 0", cost)
	}
}

// TestInterleaveDomainDistribution pins interleave's placement: lazy
// round-robin across all four home nodes, evenly.
func TestInterleaveDomainDistribution(t *testing.T) {
	_, d := lazyDomain(t, policy.Interleave)
	const pages = 400
	dist := touchDist(d, pages, 0)
	for n := numa.NodeID(0); n < 4; n++ {
		if dist[n] != pages/4 {
			t.Fatalf("interleave distribution %v, want %d per node", dist, pages/4)
		}
	}
}

// TestBindDomainDistribution pins bind:<node>: every page on the bound
// node regardless of the accessor.
func TestBindDomainDistribution(t *testing.T) {
	_, d := lazyDomain(t, policy.Kind("bind:3"))
	dist := touchDist(d, 200, 1)
	if dist[3] != 200 {
		t.Fatalf("bind:3 distribution %v, want all on node 3", dist)
	}
	if d.Policy().Static != policy.Kind("bind:3") {
		t.Fatalf("policy = %v", d.Policy())
	}
}

// TestBindDomainRangeChecked: a bind node beyond the machine is
// rejected at domain creation, not at fault time.
func TestBindDomainRangeChecked(t *testing.T) {
	hv := testHV(t)
	_, err := hv.CreateDomain(DomainSpec{
		Name: "oob", MemBytes: 1 << 20,
		PinCPUs: []numa.CPUID{0}, Boot: policy.Kind("bind:9"),
	})
	if err == nil {
		t.Fatal("bind:9 accepted on a 4-node machine")
	}
}

// TestLeastLoadedDomainDistribution pins least-loaded: dom0's memory
// lives on node 0, so the three emptier nodes absorb the whole fill in
// rotation — an exact even split, with the loaded node left alone.
func TestLeastLoadedDomainDistribution(t *testing.T) {
	_, d := lazyDomain(t, policy.LeastLoaded)
	const pages = 600 // 2.4 MiB, well under dom0's 4 MiB bite on node 0
	dist := touchDist(d, pages, 0)
	if dist[0] != 0 {
		t.Fatalf("least-loaded placed %d pages on the fullest node: %v", dist[0], dist)
	}
	for n := numa.NodeID(1); n < 4; n++ {
		if dist[n] != pages/3 {
			t.Fatalf("least-loaded distribution %v, want %d on each empty node", dist, pages/3)
		}
	}
}

// TestRuntimeSwitchToRegisteredPolicy: an eagerly booted domain can
// switch to a new registered policy through the hypercall; passthrough
// survives because the policy never invalidates entries.
func TestRuntimeSwitchToRegisteredPolicy(t *testing.T) {
	hv := testHV(t)
	d, err := hv.CreateDomain(DomainSpec{
		Name: "sw", MemBytes: 4 << 20,
		PinCPUs: []numa.CPUID{0, 4, 8, 12}, Boot: policy.Round4K, Passthrough: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.HypercallSetPolicy(policy.Config{Static: policy.LeastLoaded}); err != nil {
		t.Fatal(err)
	}
	if !d.Passthrough() {
		t.Fatal("least-loaded needlessly disabled passthrough")
	}
	if _, err := d.HypercallSetPolicy(policy.Config{Static: policy.Kind("nosuch")}); err == nil {
		t.Fatal("unknown runtime policy accepted")
	}
	if _, err := d.HypercallSetPolicy(policy.Config{Static: policy.Kind("bind:9")}); err == nil {
		t.Fatal("out-of-range bind accepted at runtime")
	}
	// The descriptor declares bind Carrefour-unstackable; programmatic
	// configs must be rejected like parsed ones.
	if _, err := d.HypercallSetPolicy(policy.Config{Static: policy.Kind("bind:1"), Carrefour: true}); err == nil {
		t.Fatal("carrefour stacked on bind at runtime")
	}
}

// TestAliasBootCanonicalized: booting through an alias spelling must
// behave exactly like the canonical kind — the stored boot kind is
// canonical, so the boot-only runtime check and same-policy comparison
// are not fooled by aliases or case.
func TestAliasBootCanonicalized(t *testing.T) {
	hv := testHV(t)
	d, err := hv.CreateDomain(DomainSpec{
		Name: "alias", MemBytes: 1 << 20,
		PinCPUs: []numa.CPUID{0}, Boot: policy.Kind("r1g"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Policy().Static != policy.Round1G {
		t.Fatalf("boot kind = %v, want canonical round-1G", d.Policy().Static)
	}
	// Re-selecting round-1G at run time is allowed on a round-1G-booted
	// domain, however it was spelled at boot.
	if _, err := d.HypercallSetPolicy(policy.Config{Static: policy.Round1G}); err != nil {
		t.Fatalf("round-1G re-select rejected after alias boot: %v", err)
	}
	// And the hypercall canonicalizes too: an alias selects the same
	// policy, not a rebuilt one under a different name.
	if _, err := d.HypercallSetPolicy(policy.Config{Static: policy.Kind("R1G")}); err != nil {
		t.Fatalf("aliased re-select rejected: %v", err)
	}
	if d.Policy().Static != policy.Round1G {
		t.Fatalf("runtime kind = %v, want canonical round-1G", d.Policy().Static)
	}
}

// TestDefaultBootIsRound1G: an empty Boot keeps Xen's stock layout, as
// the zero value did when Kind was an enum.
func TestDefaultBootIsRound1G(t *testing.T) {
	hv := testHV(t)
	d, err := hv.CreateDomain(DomainSpec{
		Name: "def", MemBytes: 4 << 20, PinCPUs: []numa.CPUID{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Policy().Static != policy.Round1G {
		t.Fatalf("default boot = %v, want round-1G", d.Policy().Static)
	}
	if _, ok := d.NodeOfPFN(0); !ok {
		t.Fatal("round-1G default boot did not populate eagerly")
	}
}

// TestAdaptiveDomainSwitchesToFirstTouch: a domain booted with the
// adaptive policy probes least-loaded placement, then — once its
// placement imbalance stabilizes — replaces itself with first-touch
// through HypercallSetPolicy, so the switch is observable on the
// domain exactly like a guest-initiated one (config change, later
// touches placed on the accessor's node).
func TestAdaptiveDomainSwitchesToFirstTouch(t *testing.T) {
	_, d := lazyDomain(t, policy.Adaptive)
	if d.Policy().Static != policy.Adaptive {
		t.Fatalf("boot policy = %v, want adaptive", d.Policy().Static)
	}
	// Stack Carrefour at run time; the internal switch must preserve it.
	if _, err := d.HypercallSetPolicy(policy.Config{Static: policy.Adaptive, Carrefour: true}); err != nil {
		t.Fatal(err)
	}
	// Two fault windows with even least-loaded spreading stabilize the
	// probe; touch enough distinct pages from one node to get there.
	touchDist(d, 600, 1)
	// Only HypercallSetPolicy changes Policy(), so the new config shows
	// the switch went through the hypercall path.
	if got := d.Policy(); got.Static != policy.FirstTouch || !got.Carrefour {
		t.Fatalf("policy after probe = %+v, want first-touch with carrefour", got)
	}
	// Post-switch touches run the installed first-touch policy: pages
	// land on the accessor's node.
	node, _ := d.Touch(700, 3)
	if node != 3 {
		t.Fatalf("post-switch touch placed on node %d, want 3", node)
	}
}
