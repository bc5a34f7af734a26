package guest

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/pt"
	"repro/internal/sim"
)

// Process is one guest user process: a virtual address space backed
// lazily by physical pages. Mmap reserves virtual pages; the first touch
// of each page allocates a physical page (the guest-level first-touch of
// §3.1) and, when the hypervisor-level first-touch policy is active,
// notifies the hypervisor through the page queue. Munmap releases the
// physical pages back to the guest free list (zeroing them, §4.4.2) and
// notifies again — the exact alloc/release stream the paper's external
// interface is built to forward.
type Process struct {
	os    *OS
	PID   int
	table *pt.GuestTable
	// nextVPN is the mmap cursor; address spaces only grow, like the
	// Streamflow allocator's mmap churn.
	nextVPN pt.VPN
	// mappings tracks live Mmap regions for Munmap validation.
	mappings map[pt.VPN]int // start VPN → page count
}

// NewProcess creates a process on the guest.
func (g *OS) NewProcess(pid int) *Process {
	return &Process{
		os:       g,
		PID:      pid,
		table:    pt.NewGuestTable(),
		mappings: make(map[pt.VPN]int),
	}
}

// reset rebinds the process to a rebooted guest with an empty address
// space, keeping the page-table array and mapping-map storage.
func (p *Process) reset(g *OS) {
	p.os = g
	p.table.Reset()
	p.nextVPN = 0
	clear(p.mappings)
}

// Mmap reserves pages virtual pages and returns the start VPN. No
// physical memory is allocated yet (lazy allocation).
func (p *Process) Mmap(pages int) (pt.VPN, sim.Time, error) {
	if pages <= 0 {
		return 0, 0, fmt.Errorf("guest: mmap of %d pages", pages)
	}
	start := p.nextVPN
	p.nextVPN += pt.VPN(pages)
	p.table.Grow(uint64(p.nextVPN))
	p.mappings[start] = pages
	// Setting up VMAs is cheap and O(1) in this model.
	return start, 200 * sim.Nanosecond, nil
}

// Touch simulates the process's first access to one virtual page: on a
// guest page fault the guest allocates a physical page, installs the
// translation and (under first-touch) notifies the hypervisor. It
// returns the backing physical page and the time spent in the guest
// kernel. Touching an already-present page is free and returns its
// existing physical page.
func (p *Process) Touch(v pt.VPN) (mem.PFN, sim.Time, error) {
	if pfn, ok := p.table.Lookup(v); ok {
		return pfn, 0, nil
	}
	pfn, cost, err := p.os.AllocPage()
	if err != nil {
		return 0, cost, err
	}
	p.table.Map(v, pfn)
	return pfn, cost, nil
}

// Munmap releases a region previously returned by Mmap: every present
// page goes back to the guest free list (zeroed), generating release
// notifications when the queue is active. Untouched pages cost nothing —
// they were never allocated.
func (p *Process) Munmap(start pt.VPN) (sim.Time, error) {
	pages, ok := p.mappings[start]
	if !ok {
		return 0, fmt.Errorf("guest: munmap of unmapped region %d", start)
	}
	delete(p.mappings, start)
	var total sim.Time
	for v := start; v < start+pt.VPN(pages); v++ {
		if pfn, present := p.table.Lookup(v); present {
			p.table.Unmap(v)
			total += p.os.FreePage(pfn)
		}
	}
	return total, nil
}

// Resident reports the number of physically backed pages.
func (p *Process) Resident() int { return p.table.Len() }

// ChurnOnce models one Streamflow-style allocator cycle: mmap one page,
// touch it, munmap it. It returns the total guest+hypervisor cost; under
// first-touch this emits one alloc and one release notification.
func (p *Process) ChurnOnce() (sim.Time, error) {
	v, cost, err := p.Mmap(1)
	if err != nil {
		return cost, err
	}
	_, c2, err := p.Touch(v)
	cost += c2
	if err != nil {
		return cost, err
	}
	c3, err := p.Munmap(v)
	cost += c3
	return cost, err
}
