// Package pt models the page-table layer the paper's mechanisms act on:
// the hypervisor page table (EPT/NPT), owned by the hypervisor and
// mapping one domain's physical pages to machine pages. The guest's own
// page table is not modelled: the hypervisor never reads it, which is
// why the guest reports page allocations and releases through the page
// queue instead (§4.2.3–4.2.4, internal/guest).
//
// The table is the heart of the paper's internal interface (§4.1): a
// NUMA policy places a physical page on a node by choosing which
// machine frame backs it, and migrates a page by remapping its entry to
// a copy on the target node.
//
// The table is frame-indexed, as hardware page tables are: entry i
// describes physical page i, so a lookup is an index and nothing is
// hashed. A domain's physical space is dense and fixed at creation,
// which sizes the table once. The table holds entries only: it has no
// fault hook and no write-protect bit. The domain that owns it resolves
// a fault on an invalid entry through its policy (package xen).
package pt

import (
	"fmt"

	"repro/internal/mem"
)

// HypervisorEntry is one hypervisor page-table entry for a physical page.
type HypervisorEntry struct {
	MFN   mem.MFN
	Valid bool
	// Owned is a software bit for the table's owner, as Xen keeps page
	// types in the entry's software-available bits: the frame was
	// allocated for this page alone (MapOwned), not carved out of a
	// block mapped with Map, so the owner frees it with the page.
	Owned bool
}

// HypervisorTable maps one domain's physical pages to machine frames.
type HypervisorTable struct {
	// entries[pfn] is pfn's entry; the slice spans the domain's whole
	// physical space.
	entries []HypervisorEntry
}

// NewHypervisorTable returns a table for a physical space of pages
// pages; every entry is invalid until mapped.
func NewHypervisorTable(pages uint64) *HypervisorTable {
	return &HypervisorTable{entries: make([]HypervisorEntry, pages)}
}

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
// valid and not owned. Mapping beyond the physical space panics.
//
//xnuma:noalloc
func (h *HypervisorTable) Map(pfn mem.PFN, mfn mem.MFN) {
	if uint64(pfn) >= uint64(len(h.entries)) {
		panic(fmt.Sprintf("pt: mapping PFN %d beyond the %d-page physical space", pfn, len(h.entries)))
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
	h.entries[pfn] = HypervisorEntry{}
	return e.MFN
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

// Reset returns the table to the state NewHypervisorTable(pages) builds:
// every entry invalid. The entry array is zeroed in place and kept
// whenever its capacity covers pages, so a recycled domain's table
// refills without allocating.
func (h *HypervisorTable) Reset(pages uint64) {
	if pages > uint64(cap(h.entries)) {
		h.entries = make([]HypervisorEntry, pages)
	} else {
		h.entries = h.entries[:pages]
		clear(h.entries)
	}
}

// Walk calls fn for every valid entry, in ascending PFN order.
func (h *HypervisorTable) Walk(fn func(mem.PFN, HypervisorEntry)) {
	for p, e := range h.entries {
		if e.Valid {
			fn(mem.PFN(p), e)
		}
	}
}
