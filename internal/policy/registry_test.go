package policy

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/numa"
)

func stubDescriptor(name string) Descriptor {
	return Descriptor{
		Name: name,
		New:  newRoundRobin,
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Register(stubDescriptor("alpha"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Register(stubDescriptor("Alpha")) // names are case-insensitive
}

func TestRegisterDuplicateAliasPanics(t *testing.T) {
	r := NewRegistry()
	d := stubDescriptor("alpha")
	d.Aliases = []string{"a"}
	r.Register(d)
	d2 := stubDescriptor("beta")
	d2.Aliases = []string{"a"}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate alias did not panic")
		}
	}()
	r.Register(d2)
}

func TestRegisterParameterizedWithoutNormalizePanics(t *testing.T) {
	r := NewRegistry()
	d := stubDescriptor("param")
	d.Parameterized = true
	d.DefaultArg = "1"
	defer func() {
		if recover() == nil {
			t.Fatal("parameterized descriptor without NormalizeArg did not panic")
		}
	}()
	r.Register(d)
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("empty name did not panic")
		}
	}()
	r.Register(stubDescriptor(""))
}

func TestRegisterMalformedNamePanics(t *testing.T) {
	for _, name := range []string{"a:b", "a/b"} {
		func() {
			r := NewRegistry()
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q did not panic", name)
				}
			}()
			r.Register(stubDescriptor(name))
		}()
	}
}

func TestLookupAliasesAndCase(t *testing.T) {
	for in, want := range map[Kind]Kind{
		"r4k": Round4K, "ROUND-1G": Round1G, "ft": FirstTouch,
		"IL": Interleave, "ll": LeastLoaded, "BIND:03": "bind:3",
	} {
		_, _, got, err := Resolve(in)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("Resolve(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLookupArguments(t *testing.T) {
	for _, bad := range []Kind{"bind", "bind:", "bind:x", "bind:-1", "round-4k:3", "", "nosuch"} {
		if _, _, err := Describe(bad); err == nil {
			t.Errorf("Describe(%q) accepted", bad)
		}
	}
	if _, err := New("bind:9", 8); err == nil {
		t.Error("bind:9 accepted on an 8-node machine")
	}
	if _, err := New("bind:7", 8); err != nil {
		t.Errorf("bind:7 rejected on an 8-node machine: %v", err)
	}
}

// TestParseRoundTrip is the registry-wide property: for every
// registered policy (parameterized kinds instantiated with their
// default argument) and every legal Carrefour suffix,
// Parse(cfg.String()) == cfg.
func TestParseRoundTrip(t *testing.T) {
	for _, d := range List() {
		name := d.Name
		if d.Parameterized {
			name += ":" + d.DefaultArg
		}
		variants := []string{name}
		if d.Carrefour {
			variants = append(variants, name+"/carrefour",
				name+"/carrefour:migration", name+"/carrefour:mig",
				name+"/carrefour:replication", name+"/carrefour:repl")
		}
		for _, v := range variants {
			cfg, err := Parse(v)
			if err != nil {
				t.Fatalf("Parse(%q): %v", v, err)
			}
			again, err := Parse(cfg.String())
			if err != nil {
				t.Fatalf("Parse(%q.String() = %q): %v", v, cfg.String(), err)
			}
			if again != cfg {
				t.Errorf("round trip broke: %q → %+v → %q → %+v", v, cfg, cfg.String(), again)
			}
		}
	}
}

func TestParseRejectsCarrefourOnBind(t *testing.T) {
	if _, err := Parse("bind:2/carrefour"); err == nil {
		t.Fatal("carrefour stacked on bind")
	}
}

func TestAbbrevs(t *testing.T) {
	for k, want := range map[Kind]string{
		Round4K: "R4K", Round1G: "R1G", FirstTouch: "FT",
		Interleave: "IL", LeastLoaded: "LL", "bind:3": "B3",
		"unknown": "unknown",
	} {
		if got := Abbrev(k); got != want {
			t.Errorf("Abbrev(%s) = %q, want %q", k, got, want)
		}
	}
}

func TestBootKinds(t *testing.T) {
	for k, want := range map[Kind]Kind{
		Round1G: Round1G, Round4K: Round4K, FirstTouch: Round4K,
		Interleave: Interleave, LeastLoaded: LeastLoaded, "bind:3": "bind:3",
	} {
		got, err := BootKind(k)
		if err != nil {
			t.Fatalf("BootKind(%s): %v", k, err)
		}
		if got != want {
			t.Errorf("BootKind(%s) = %s, want %s", k, got, want)
		}
	}
}

func TestListIsOpen(t *testing.T) {
	names := make([]string, 0)
	for _, d := range List() {
		names = append(names, d.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"round-1G", "round-4K", "first-touch", "interleave", "bind", "least-loaded"} {
		if !strings.Contains(joined, want) {
			t.Errorf("registry missing %q (have %s)", want, joined)
		}
	}
}

// --- placement distribution of the three new policies ---

func TestInterleaveFaultsRoundRobin(t *testing.T) {
	d := newFakeDomain(1, 3)
	p := mustNew(t, Interleave)
	nodes := make(map[numa.NodeID]int)
	for i := mem.PFN(0); i < 10; i++ {
		p.HandleFault(d, i, 0)
		nodes[d.NodeOfFrame(d.table.Lookup(i).MFN)]++
	}
	if nodes[1] != 5 || nodes[3] != 5 {
		t.Fatalf("interleave distribution = %v, want 5/5 over homes", nodes)
	}
}

func TestBindFaultsOnBoundNode(t *testing.T) {
	d := newFakeDomain(0, 1, 2, 3)
	p := mustNew(t, Kind("bind:2"))
	for i := mem.PFN(0); i < 8; i++ {
		p.HandleFault(d, i, 0) // accessor ignored
		if n := d.NodeOfFrame(d.table.Lookup(i).MFN); n != 2 {
			t.Fatalf("page %d on node %d, want 2", i, n)
		}
	}
}

func TestLeastLoadedFaultsOnFreestHome(t *testing.T) {
	d := newFakeDomain(0, 1, 2)
	d.free[0], d.free[1], d.free[2] = 4*mem.PageSize, 6*mem.PageSize, 5*mem.PageSize
	p := mustNew(t, LeastLoaded)
	// The fake debits one page per allocation; the policy always picks
	// the freest home, ties breaking toward the earliest home.
	want := []numa.NodeID{1, 1, 2, 0, 1}
	for i, w := range want {
		p.HandleFault(d, mem.PFN(i), 3)
		if n := d.NodeOfFrame(d.table.Lookup(mem.PFN(i)).MFN); n != w {
			t.Fatalf("fault %d on node %d, want %d (free %v)", i, n, w, d.free)
		}
	}
}

func TestParseRejectsBadCarrefourSuffix(t *testing.T) {
	for _, s := range []string{
		"round-4k/carrefour:nosuch", "round-4k/nosuch",
		"round-4k/carrefour:", "bind:2/carrefour:migration",
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestCheckConfigVariants(t *testing.T) {
	ok := Config{Static: Round4K, Carrefour: true, CarrefourVariant: CarrefourMigrationOnly}
	if err := CheckConfig(ok); err != nil {
		t.Fatalf("valid variant rejected: %v", err)
	}
	for _, bad := range []Config{
		{Static: Round4K, Carrefour: true, CarrefourVariant: "nosuch"},
		{Static: Round4K, CarrefourVariant: CarrefourMigrationOnly}, // variant without carrefour
	} {
		if err := CheckConfig(bad); err == nil {
			t.Errorf("CheckConfig(%+v) accepted", bad)
		}
	}
}
