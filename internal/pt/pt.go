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
// which sizes the table once. Each entry is one 64-bit word, the width
// of an EPT/NPT entry and of a Xen p2m entry: the machine frame number
// in bits 0–61, the Owned software bit in bit 62 and the Valid bit in
// bit 63. The zero word is the invalid entry. The table holds entries
// only: it has no fault hook and no write-protect bit. The domain that
// owns it resolves a fault on an invalid entry through its policy
// (package xen).
package pt

import (
	"fmt"

	"repro/internal/mem"
)

// HypervisorEntry is one hypervisor page-table entry for a physical
// page, as Lookup and Walk unpack it from the table's word.
type HypervisorEntry struct {
	MFN   mem.MFN
	Valid bool
	// Owned is a software bit for the table's owner, as Xen keeps page
	// types in the entry's software-available bits: the frame was
	// allocated for this page alone (MapOwned), not carved out of a
	// block mapped with Map, so the owner frees it with the page.
	Owned bool
}

// The bits of a table word above its machine frame number.
const (
	ownedBit = 1 << 62
	validBit = 1 << 63
	mfnMask  = ownedBit - 1
)

// entry unpacks a table word.
//
//xnuma:noalloc
func entry(w uint64) HypervisorEntry {
	return HypervisorEntry{MFN: mem.MFN(w & mfnMask), Valid: w&validBit != 0, Owned: w&ownedBit != 0}
}

// HypervisorTable maps one domain's physical pages to machine frames.
type HypervisorTable struct {
	// entries[pfn] is pfn's entry word; the slice spans the domain's
	// whole physical space.
	entries []uint64
}

// NewHypervisorTable returns a table for a physical space of pages
// pages; every entry is invalid until mapped.
func NewHypervisorTable(pages uint64) *HypervisorTable {
	return &HypervisorTable{entries: make([]uint64, pages)}
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
	return entry(h.entries[pfn])
}

// Map installs pfn→mfn, overwriting any previous entry. The entry becomes
// valid and not owned. Mapping beyond the physical space, or an MFN
// that does not fit the entry's 62 frame bits (NoMFN among them),
// panics.
//
//xnuma:noalloc
func (h *HypervisorTable) Map(pfn mem.PFN, mfn mem.MFN) {
	if uint64(pfn) >= uint64(len(h.entries)) {
		panic(fmt.Sprintf("pt: mapping PFN %d beyond the %d-page physical space", pfn, len(h.entries)))
	}
	if uint64(mfn) > mfnMask {
		panic(fmt.Sprintf("pt: MFN %#x does not fit an entry's 62 frame bits", uint64(mfn)))
	}
	h.entries[pfn] = uint64(mfn) | validBit
}

// MapOwned is Map for a frame allocated for pfn alone: the entry is
// marked Owned.
//
//xnuma:noalloc
func (h *HypervisorTable) MapOwned(pfn mem.PFN, mfn mem.MFN) {
	h.Map(pfn, mfn)
	h.entries[pfn] |= ownedBit
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
	h.entries[pfn] = 0
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
		h.entries = make([]uint64, pages)
	} else {
		h.entries = h.entries[:pages]
		clear(h.entries)
	}
}

// Walk calls fn for every valid entry, in ascending PFN order.
func (h *HypervisorTable) Walk(fn func(mem.PFN, HypervisorEntry)) {
	for p, w := range h.entries {
		if w&validBit != 0 {
			fn(mem.PFN(p), entry(w))
		}
	}
}
