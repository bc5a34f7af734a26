package numa

// TLBModel estimates address-translation overhead, the first extension
// the paper's conclusion calls for: "Handling large pages in order to
// decrease the number of TLB misses should further improve performance"
// (§7). The model is a classical coverage argument: a working set larger
// than the TLB reach misses with probability 1 − reach/workingSet, and
// each miss pays a page-table walk — twice as deep under virtualization,
// where every guest level also walks the hypervisor table (2-D walk).
type TLBModel struct {
	// Entries4K and Entries2M are the TLB capacities per page size
	// (AMD Opteron 6174: 1024 L2-DTLB entries for 4 KiB pages, 128 for
	// 2 MiB pages).
	Entries4K int
	Entries2M int
	// WalkCycles is a native page-table walk; GuestWalkCycles the
	// two-dimensional virtualized walk.
	WalkCycles      int
	GuestWalkCycles int
}

// DefaultTLB returns the AMD48 calibration.
func DefaultTLB() TLBModel {
	return TLBModel{
		Entries4K:       1024,
		Entries2M:       128,
		WalkCycles:      35,
		GuestWalkCycles: 95, // ~2.7× native: nested walk touches both tables
	}
}

// MissRate returns the probability that an access to a working set of
// workingSetBytes misses the TLB when the address space is mapped with
// the given page size (4 KiB or 2 MiB pages).
//
//xnuma:noalloc
func (m TLBModel) MissRate(workingSetBytes float64, largePages bool) float64 {
	pageBytes, entries := 4096.0, float64(m.Entries4K)
	if largePages {
		pageBytes, entries = 2<<20, float64(m.Entries2M)
	}
	reach := pageBytes * entries
	if workingSetBytes <= reach || workingSetBytes <= 0 {
		return 0
	}
	return 1 - reach/workingSetBytes
}

// WalkPenaltyCycles returns the average per-access translation cost in
// cycles for the given working set, page size and execution mode.
//
//xnuma:noalloc
func (m TLBModel) WalkPenaltyCycles(workingSetBytes float64, largePages, virtualized bool) float64 {
	walk := float64(m.WalkCycles)
	if virtualized {
		walk = float64(m.GuestWalkCycles)
	}
	return m.MissRate(workingSetBytes, largePages) * walk
}
