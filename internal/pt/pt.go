// Package pt models the page-table layer the paper's mechanisms act on:
// the hypervisor page table (EPT/NPT), owned by the hypervisor and
// mapping one domain's physical pages to machine pages. The guest's own
// page table is not modelled: the hypervisor never reads it, which is
// why the guest reports page allocations and releases through the page
// queue instead (§4.2.3–4.2.4, internal/guest).
//
// The table is the heart of the paper's internal interface (§4.1): a
// NUMA policy places a physical page on a node by choosing which
// machine frame backs it, and migrates a page by write-protecting the
// entry, copying, and remapping.
//
// The table is frame-indexed, as hardware page tables are: entry i
// describes physical page i, so a lookup is an index and nothing is
// hashed. A domain's physical space is dense and fixed at creation,
// which sizes the table once.
package pt

import (
	"fmt"

	"repro/internal/mem"
)

// HypervisorEntry is one hypervisor page-table entry for a physical page.
type HypervisorEntry struct {
	MFN          mem.MFN
	Valid        bool
	WriteProtect bool
	// Owned is a software bit for the table's owner, as Xen keeps page
	// types in the entry's software-available bits: the frame was
	// allocated for this page alone (MapOwned), not carved out of a
	// block mapped with Map, so the owner frees it with the page.
	Owned bool
}

// FaultKind distinguishes hypervisor page faults.
type FaultKind int

const (
	// FaultNotPresent fires on any access to an invalid entry — the hook
	// the first-touch policy uses to place the page (§4.2.2).
	FaultNotPresent FaultKind = iota
	// FaultWriteProtected fires on a write to a write-protected entry —
	// the hook the migration mechanism uses to quiesce writers (§4.1).
	FaultWriteProtected
)

func (k FaultKind) String() string {
	switch k {
	case FaultNotPresent:
		return "not-present"
	case FaultWriteProtected:
		return "write-protected"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultHandler resolves a hypervisor page fault. It must leave the entry
// in a state that allows the access to proceed (valid, and writable if
// write is true) or the simulated access panics.
type FaultHandler func(pfn mem.PFN, write bool, kind FaultKind)

// HypervisorTable maps one domain's physical pages to machine frames.
type HypervisorTable struct {
	// entries[pfn] is pfn's entry; the slice spans the domain's whole
	// physical space.
	entries []HypervisorEntry
	valid   int
	handler FaultHandler

	// Counters for the evaluation.
	Faults          uint64
	WriteProtFaults uint64
}

// NewHypervisorTable returns a table for a physical space of pages pages
// with no fault handler; every entry is invalid until mapped.
func NewHypervisorTable(pages uint64) *HypervisorTable {
	return &HypervisorTable{entries: make([]HypervisorEntry, pages)}
}

// SetFaultHandler installs the fault resolution hook (the active NUMA
// policy registers itself here).
func (h *HypervisorTable) SetFaultHandler(fn FaultHandler) { h.handler = fn }

// Lookup returns the entry for pfn: the zero (invalid) entry when absent
// or beyond the physical space, so guest-supplied frame numbers are safe
// to look up.
//
//xnuma:noalloc
func (h *HypervisorTable) Lookup(pfn mem.PFN) HypervisorEntry {
	if uint64(pfn) >= uint64(len(h.entries)) {
		return HypervisorEntry{}
	}
	return h.entries[pfn]
}

// Map installs pfn→mfn, overwriting any previous entry. The entry becomes
// valid and writable, and not owned. Mapping beyond the physical space
// panics.
//
//xnuma:noalloc
func (h *HypervisorTable) Map(pfn mem.PFN, mfn mem.MFN) {
	if uint64(pfn) >= uint64(len(h.entries)) {
		panic(fmt.Sprintf("pt: mapping PFN %d beyond the %d-page physical space", pfn, len(h.entries)))
	}
	if !h.entries[pfn].Valid {
		h.valid++
	}
	h.entries[pfn] = HypervisorEntry{MFN: mfn, Valid: true}
}

// MapOwned is Map for a frame allocated for pfn alone: the entry is
// marked Owned.
//
//xnuma:noalloc
func (h *HypervisorTable) MapOwned(pfn mem.PFN, mfn mem.MFN) {
	h.Map(pfn, mfn)
	h.entries[pfn].Owned = true
}

// Invalidate clears the entry for pfn and returns the machine frame it
// held (NoMFN when it was already invalid). Subsequent accesses fault.
//
//xnuma:noalloc
func (h *HypervisorTable) Invalidate(pfn mem.PFN) mem.MFN {
	e := h.Lookup(pfn)
	if !e.Valid {
		return mem.NoMFN
	}
	h.valid--
	h.entries[pfn] = HypervisorEntry{}
	return e.MFN
}

// WriteProtect marks pfn's entry read-only. It panics on invalid entries:
// migration must only target mapped pages.
//
//xnuma:noalloc
func (h *HypervisorTable) WriteProtect(pfn mem.PFN) {
	if !h.Lookup(pfn).Valid {
		panic(fmt.Sprintf("pt: write-protecting invalid PFN %d", pfn))
	}
	h.entries[pfn].WriteProtect = true
}

// Unprotect clears the write-protect bit.
//
//xnuma:noalloc
func (h *HypervisorTable) Unprotect(pfn mem.PFN) {
	if !h.Lookup(pfn).Valid {
		panic(fmt.Sprintf("pt: unprotecting invalid PFN %d", pfn))
	}
	h.entries[pfn].WriteProtect = false
}

// Translate resolves pfn for an access, delivering hypervisor page faults
// to the handler until the entry permits the access. It returns the
// backing machine frame.
//
//xnuma:noalloc
func (h *HypervisorTable) Translate(pfn mem.PFN, write bool) mem.MFN {
	for attempt := 0; ; attempt++ {
		if attempt > 2 {
			panic(fmt.Sprintf("pt: fault handler did not resolve PFN %d", pfn))
		}
		e := h.Lookup(pfn)
		if !e.Valid {
			h.Faults++
			if h.handler == nil {
				panic(fmt.Sprintf("pt: fault on PFN %d with no handler", pfn))
			}
			h.handler(pfn, write, FaultNotPresent)
			continue
		}
		if write && e.WriteProtect {
			h.WriteProtFaults++
			if h.handler == nil {
				panic(fmt.Sprintf("pt: write-protect fault on PFN %d with no handler", pfn))
			}
			h.handler(pfn, write, FaultWriteProtected)
			continue
		}
		return e.MFN
	}
}

// TranslateNoFault resolves pfn without delivering faults, as the IOMMU
// does: devices cannot wait for software fault resolution (§4.4.1).
// ok is false on an invalid entry, which aborts the DMA.
//
//xnuma:noalloc
func (h *HypervisorTable) TranslateNoFault(pfn mem.PFN) (mem.MFN, bool) {
	e := h.Lookup(pfn)
	if !e.Valid {
		return mem.NoMFN, false
	}
	return e.MFN, true
}

// Reset returns the table to the state NewHypervisorTable(pages) builds
// — every entry invalid, no fault handler, zeroed counters. The entry
// array is zeroed in place and kept whenever its capacity covers pages,
// so a recycled domain's table refills without allocating.
func (h *HypervisorTable) Reset(pages uint64) {
	if pages > uint64(cap(h.entries)) {
		h.entries = make([]HypervisorEntry, pages)
	} else {
		h.entries = h.entries[:pages]
		clear(h.entries)
	}
	h.valid = 0
	h.handler = nil
	h.Faults, h.WriteProtFaults = 0, 0
}

// Len reports the number of valid entries.
func (h *HypervisorTable) Len() int { return h.valid }

// Walk calls fn for every valid entry, in ascending PFN order.
func (h *HypervisorTable) Walk(fn func(mem.PFN, HypervisorEntry)) {
	for p, e := range h.entries {
		if e.Valid {
			fn(mem.PFN(p), e)
		}
	}
}
