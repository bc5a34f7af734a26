package pt

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestHypervisorTableInvalidate(t *testing.T) {
	h := NewHypervisorTable(64)
	h.Map(1, 11)
	if got := h.Invalidate(1); got != 11 {
		t.Fatalf("Invalidate returned %d", got)
	}
	if got := h.Invalidate(1); got != mem.NoMFN {
		t.Fatalf("second Invalidate returned %d, want NoMFN", got)
	}
	if _, ok := h.TranslateNoFault(1); ok {
		t.Fatal("invalidated entry still translates")
	}
}

// TestTranslateNoFaultNeverCallsHandler: IOMMU-style translation must
// not fault into software (§4.4.1). The table has no fault handler to
// call, so an invalid entry reads as a failed translation.
func TestTranslateNoFaultNeverCallsHandler(t *testing.T) {
	h := NewHypervisorTable(64)
	if _, ok := h.TranslateNoFault(42); ok {
		t.Fatal("invalid entry translated")
	}
	h.entries[42] = HypervisorEntry{MFN: 420, Valid: true}
	mfn, ok := h.TranslateNoFault(42)
	if !ok || mfn != 420 {
		t.Fatalf("TranslateNoFault = %d,%v", mfn, ok)
	}
}

func TestWalkVisitsAll(t *testing.T) {
	h := NewHypervisorTable(100)
	for p := mem.PFN(0); p < 100; p++ {
		h.Map(p, mem.MFN(p*2))
	}
	count := 0
	h.Walk(func(p mem.PFN, e HypervisorEntry) {
		count++
		if e.MFN != mem.MFN(p*2) {
			t.Fatalf("entry %d has MFN %d", p, e.MFN)
		}
	})
	if count != 100 {
		t.Fatalf("walked %d entries", count)
	}
}

// TestQuickMapInvalidate property-tests the table against a map model.
// Random map / owned-map / invalidate sequences over a 64-page table,
// plus lookups and invalidations of frames past its end, must leave
// every frame reading as the model says: an entry translates iff it was
// mapped after its last invalidation, carries the owned bit of its last
// mapping, and frames beyond the physical space read as invalid without
// panicking. Walk must visit exactly the valid entries in ascending PFN
// order.
func TestQuickMapInvalidate(t *testing.T) {
	const pages, span = 64, 80 // frames 64..79 lie beyond the table
	check := func(ops []uint16) bool {
		h := NewHypervisorTable(pages)
		expect := make(map[mem.PFN]HypervisorEntry)
		for i, op := range ops {
			pfn := mem.PFN(op % span)
			valid := expect[pfn].Valid
			switch op % 4 {
			case 0:
				want := mem.NoMFN
				if valid {
					want = expect[pfn].MFN
				}
				if h.Invalidate(pfn) != want {
					return false
				}
				delete(expect, pfn)
			case 1:
				if pfn < pages {
					h.MapOwned(pfn, mem.MFN(i))
					expect[pfn] = HypervisorEntry{MFN: mem.MFN(i), Valid: true, Owned: true}
				}
			default:
				if pfn < pages {
					h.Map(pfn, mem.MFN(i))
					expect[pfn] = HypervisorEntry{MFN: mem.MFN(i), Valid: true}
				}
			}
		}
		for pfn := mem.PFN(0); pfn < span; pfn++ {
			want := expect[pfn]
			if h.Lookup(pfn) != want {
				return false
			}
			got, ok := h.TranslateNoFault(pfn)
			if ok != want.Valid || (ok && got != want.MFN) || (!ok && got != mem.NoMFN) {
				return false
			}
		}
		walked, ascending := 0, true
		last := mem.PFN(0)
		h.Walk(func(p mem.PFN, e HypervisorEntry) {
			if e != expect[p] || (walked > 0 && p <= last) {
				ascending = false
			}
			walked, last = walked+1, p
		})
		return ascending && walked == len(expect)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
