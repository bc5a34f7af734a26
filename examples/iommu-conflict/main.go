// IOMMU conflict: demonstrate why first-touch and the PCI passthrough
// driver cannot coexist (§4.4.1 of the paper).
//
//	go run ./examples/iommu-conflict
//
// The first-touch policy invalidates the hypervisor page-table entries
// of free pages so the next CPU access faults and places the page. The
// IOMMU translates device addresses through the same table — but a
// device cannot wait for software: an invalid entry aborts the DMA, and
// because the error is delivered asynchronously the guest OS has usually
// already failed the I/O by the time the hypervisor could react. This
// example reproduces the failure with a real DMA buffer allocated from
// the free list, and an IOMMU walk.
package main

import (
	"fmt"
	"log"

	"repro/internal/guest"
	"repro/internal/iosim"
	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/xen"
)

func main() {
	topo := numa.AMD48Scaled(64)
	hv, err := xen.New(topo, xen.ScaledConfig(64), 32<<20)
	if err != nil {
		log.Fatal(err)
	}
	var pins []numa.CPUID
	for c := 0; c < 12; c++ {
		pins = append(pins, numa.CPUID(c))
	}
	dom, err := hv.CreateDomain(xen.DomainSpec{
		Name: "demo", MemBytes: 64 << 20, PinCPUs: pins, Boot: policy.Round4K,
		Passthrough: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	os := guest.NewOS(dom, 64)

	// dmaBuffer allocates an eight-page DMA buffer from the guest's free
	// list.
	dmaBuffer := func() []mem.PFN {
		var buf []mem.PFN
		for i := 0; i < 8; i++ {
			p, _, err := os.AllocPage()
			if err != nil {
				log.Fatal(err)
			}
			buf = append(buf, p)
		}
		return buf
	}
	buf := dmaBuffer()
	var iommu iosim.IOMMU

	fmt.Println("round-4K policy: every entry is populated")
	fmt.Printf("  IOMMU walk over the buffer aborts: %v (faults: %d)\n",
		iommu.CheckFirstTouchConflict(dom.Table(), buf), iommu.Faults)

	// Switch to first-touch: the guest flushes its free list, which
	// invalidates the entry of every free page.
	if _, err := os.SetPolicy(policy.Config{Static: policy.FirstTouch}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nswitched to first-touch (free list flushed to the hypervisor)")
	fmt.Printf("  passthrough driver active: %v  ← force-disabled by the hypervisor\n", dom.Passthrough())

	// A new DMA buffer comes from the flushed free list: no CPU has
	// touched its pages yet, so their entries are still invalid.
	buf = dmaBuffer()
	fmt.Println("  guest allocated a second buffer from the free list → entries invalid")
	fmt.Printf("  IOMMU walk over the buffer aborts: %v (faults: %d)\n",
		iommu.CheckFirstTouchConflict(dom.Table(), buf), iommu.Faults)

	// A CPU touch resolves the fault — but a device cannot fault.
	node, _ := dom.Touch(buf[0], 1)
	fmt.Printf("  CPU touch resolves one page (placed on node %d); the DMA had already failed\n", node)

	fmt.Println("\nThis is why the paper disables the IOMMU when evaluating")
	fmt.Println("first-touch, and why disk-heavy applications regress under it")
	fmt.Println("(Figure 7: dc.B, bfs, cc, pagerank, sssp, mongodb).")
}
