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
	h.Map(42, 420)
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

// TestMapPanicsOnFlagBits: an MFN with bit 62 or 63 set, NoMFN among
// them, would overwrite the entry's Owned or Valid bit, so Map and
// MapOwned refuse it; the largest 62-bit frame still maps.
func TestMapPanicsOnFlagBits(t *testing.T) {
	h := NewHypervisorTable(4)
	for _, mfn := range []mem.MFN{1 << 62, 1 << 63, mem.NoMFN} {
		for i, mapFn := range []func(mem.PFN, mem.MFN){h.Map, h.MapOwned} {
			name := [...]string{"Map", "MapOwned"}[i]
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(1, %#x) did not panic", name, uint64(mfn))
					}
				}()
				mapFn(1, mfn)
			}()
			if h.Lookup(1).Valid {
				t.Fatalf("%s(1, %#x) left a valid entry", name, uint64(mfn))
			}
		}
	}
	h.MapOwned(1, 1<<62-1)
	if e := h.Lookup(1); e != (HypervisorEntry{MFN: 1<<62 - 1, Valid: true, Owned: true}) {
		t.Fatalf("largest frame reads back as %+v", e)
	}
}

// TestQuickMapInvalidate property-tests the table against a map model.
// Random map / owned-map / invalidate sequences over a 64-page table,
// plus lookups and invalidations of frames past its end, must leave
// every frame reading as the model says: an entry translates iff it was
// mapped after its last invalidation, carries the frame and the owned
// bit of its last mapping, and frames beyond the physical space read as
// invalid without panicking. Mapped frames are drawn across all 62
// frame bits, and every sequence starts by mapping frame 0 and frame
// 2^62-1, so an entry that drops a frame bit or mixes one with a flag
// fails. Walk must visit exactly the valid entries in ascending PFN
// order.
func TestQuickMapInvalidate(t *testing.T) {
	const pages, span = 64, 80 // frames 64..79 lie beyond the table
	// op is one drawn operation: Kind%4 selects invalidate (0), owned
	// map (1) or map (2, 3) of PFN%span, mapping MFN's low 62 bits.
	type op struct {
		Kind uint8
		PFN  uint16
		MFN  uint64
	}
	check := func(ops []op) bool {
		ops = append([]op{{Kind: 2, PFN: 0, MFN: 0}, {Kind: 1, PFN: pages - 1, MFN: 1<<62 - 1}}, ops...)
		h := NewHypervisorTable(pages)
		expect := make(map[mem.PFN]HypervisorEntry)
		for _, o := range ops {
			pfn, mfn := mem.PFN(o.PFN%span), mem.MFN(o.MFN&(1<<62-1))
			valid := expect[pfn].Valid
			switch o.Kind % 4 {
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
					h.MapOwned(pfn, mfn)
					expect[pfn] = HypervisorEntry{MFN: mfn, Valid: true, Owned: true}
				}
			default:
				if pfn < pages {
					h.Map(pfn, mfn)
					expect[pfn] = HypervisorEntry{MFN: mfn, Valid: true}
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
