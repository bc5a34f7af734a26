package xen

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
)

// postDestroyAllocSequence boots a hypervisor, creates a 4K-mapped
// domain and releases its frames, then records the machine-frame
// sequence the buddy allocator hands out afterwards. Releasing the
// domain frees every owned page, and each Free reshapes the buddy free
// lists — so the recorded sequence is a fingerprint of the order
// releaseFrames freed the owned pages in. releaseFrames is what
// CreateDomain runs when populating a domain fails.
func postDestroyAllocSequence(t *testing.T) []mem.MFN {
	t.Helper()
	topo := numa.SmallMachine(4, 4, 64<<20)
	hv, err := New(topo, Config{HugeOrder: 10, MidOrder: 3}, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	d, err := hv.CreateDomain(DomainSpec{
		Name: "victim", MemBytes: 16 << 20,
		PinCPUs: []numa.CPUID{0, 4, 8, 12},
		Boot:    policy.Round4K,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.releaseFrames()

	var seq []mem.MFN
	for node := numa.NodeID(0); node < 4; node++ {
		for i := 0; i < 64; i++ {
			mfn, err := hv.Alloc.Alloc(node, mem.Order4K)
			if err != nil {
				t.Fatalf("post-destroy alloc on node %d: %v", node, err)
			}
			seq = append(seq, mfn)
		}
	}
	return seq
}

// TestDestroyDomainDeterministic is the regression test for the
// releaseFrames map-order bug found by the maporder analyzer: freeing
// owned pages in map iteration order (ownership was then a map) left
// the buddy allocator in a run-dependent state, so every allocation
// after a domain release was nondeterministic. Two identical runs must
// now hand out identical frame sequences.
func TestDestroyDomainDeterministic(t *testing.T) {
	a := postDestroyAllocSequence(t)
	b := postDestroyAllocSequence(t)
	if len(a) != len(b) {
		t.Fatalf("sequence lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("post-destroy allocation %d differs between identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}
