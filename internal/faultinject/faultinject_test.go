package faultinject

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// Test sites, registered once for the whole package test binary.
var (
	siteA = Register("test.a")
	siteB = Register("test.b")
)

func install(t *testing.T, spec string) *Plan {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	Install(p)
	t.Cleanup(func() { Install(nil) })
	return p
}

func TestDisabledSiteIsFree(t *testing.T) {
	Install(nil)
	if err := siteA.Fire(); err != nil {
		t.Fatalf("disabled site fired: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { siteA.Fire() }); n != 0 {
		t.Fatalf("disabled Fire allocates %.0f per call, want 0", n)
	}
}

func TestErrorFiresAtExactHit(t *testing.T) {
	p := install(t, "test.a:hit=3:action=error")
	for i := 1; i <= 5; i++ {
		err := siteA.Fire()
		if (i == 3) != (err != nil) {
			t.Fatalf("hit %d: err = %v", i, err)
		}
		if i == 3 {
			var f *Fault
			if !errors.As(err, &f) || f.Site != "test.a" || f.Hit != 3 {
				t.Fatalf("wrong fault %v", err)
			}
		}
	}
	if p.Fired("test.a") != 1 || p.Hits("test.a") != 5 || p.TotalFired() != 1 {
		t.Fatalf("counters: fired=%d hits=%d total=%d", p.Fired("test.a"), p.Hits("test.a"), p.TotalFired())
	}
	// An unarmed site on an armed plan stays silent and uncounted.
	if err := siteB.Fire(); err != nil || p.Hits("test.b") != 0 {
		t.Fatalf("unarmed site: err=%v hits=%d", err, p.Hits("test.b"))
	}
}

func TestPanicAction(t *testing.T) {
	install(t, "test.a:hit=1:action=panic")
	defer func() {
		p := recover()
		f, ok := p.(*Fault)
		if !ok || f.Action != ActionPanic {
			t.Fatalf("recovered %v, want *Fault panic", p)
		}
	}()
	siteA.Fire()
	t.Fatal("site did not panic")
}

func TestDelayAction(t *testing.T) {
	install(t, "test.a:hit=1:action=delay:delay=30ms")
	start := time.Now()
	if err := siteA.Fire(); err != nil {
		t.Fatalf("delay returned error: %v", err)
	}
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Fatalf("delay rule stalled only %v", el)
	}
}

// TestConcurrentFires: exactly one goroutine observes each armed hit,
// regardless of interleaving (run under -race in CI).
func TestConcurrentFires(t *testing.T) {
	p := install(t, "test.a:hit=5:action=error,test.a:hit=9:action=error")
	var wg sync.WaitGroup
	var mu sync.Mutex
	var faults int
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := siteA.Fire(); err != nil {
				mu.Lock()
				faults++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if faults != 2 || p.TotalFired() != 2 {
		t.Fatalf("faults=%d fired=%d, want 2/2", faults, p.TotalFired())
	}
}

func TestParseCanonicalSpec(t *testing.T) {
	p, err := Parse(" test.b:hit=2:action=delay:delay=5ms , test.a:hit=1:action=error ")
	if err != nil {
		t.Fatal(err)
	}
	want := "test.a:hit=1:action=error,test.b:hit=2:action=delay:delay=5ms"
	if p.Spec() != want {
		t.Fatalf("spec %q, want %q", p.Spec(), want)
	}
	// The canonical spec re-parses to itself.
	p2, err := Parse(p.Spec())
	if err != nil || p2.Spec() != want {
		t.Fatalf("canonical spec does not round-trip: %v %q", err, p2.Spec())
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ spec, frag string }{
		{"", "empty"},
		{"nope.site:hit=1:action=error", "unknown site"},
		{"test.a", "want site:hit"},
		{"test.a:hit=0:action=error", "positive integer"},
		{"test.a:hit=x:action=error", "positive integer"},
		{"test.a:hit=1:action=explode", "unknown action"},
		{"test.a:hit=1", "want site:hit"},
		{"test.a:hit=1:hit=2", "required"},
		{"test.a:action=error:delay=5ms", "required"},
		{"test.a:hit=1:action=error:delay=5ms", "action=delay only"},
		{"test.a:hit=1:action=delay:delay=-1s", "bad delay"},
		{"test.a:hit=1:action=error,test.a:hit=1:action=panic", "duplicate rule"},
		{"test.a:hit=1:action=error:bogus=1", "unknown key"},
		// delay= is legal only with action=delay, whatever its value.
		{"test.a:hit=1:action=error:delay=1ms", "action=delay only"},
		// A repeated key is an error, not a silent overwrite.
		{"test.a:hit=1:hit=2:action=error", "given twice"},
		{"test.a:hit=1:action=panic:action=error", "given twice"},
	} {
		if _, err := Parse(tc.spec); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("Parse(%q) = %v, want error containing %q", tc.spec, err, tc.frag)
		}
	}
}

// FuzzParsePlan hammers the -faults parser: every spec must yield an
// error or a plan whose canonical Spec re-parses to the same Spec, and
// must never panic. CI runs a short -fuzztime smoke of this target on
// every push.
func FuzzParsePlan(f *testing.F) {
	for _, spec := range []string{
		"test.a:hit=1:action=error",
		" test.b:hit=2:action=delay:delay=5ms , test.a:hit=1:action=error ",
		"test.a:hit=5:action=error,test.a:hit=9:action=panic",
		"test.a:hit=1:action=delay",
		"test.a:hit=1:action=error:delay=1ms",
		"test.a:hit=1:hit=2:action=error",
		"test.a:hit=1:action=panic:action=error",
		"test.a:hit=1:action=delay:delay=1.5ms:delay=2ms",
		"test.a:hit=18446744073709551615:action=delay:delay=2562047h",
		"nope.site:hit=1:action=error",
		"test.a:hit=01:action=error,,",
		"test.a:=:",
		"",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			if p != nil {
				t.Fatalf("Parse(%q) returned a plan with error %v", spec, err)
			}
			return
		}
		p2, err := Parse(p.Spec())
		if err != nil {
			t.Fatalf("canonical spec %q of %q does not re-parse: %v", p.Spec(), spec, err)
		}
		if p2.Spec() != p.Spec() {
			t.Fatalf("canonical spec of %q is not stable: %q re-parses to %q", spec, p.Spec(), p2.Spec())
		}
	})
}

func TestRegistryLists(t *testing.T) {
	names := Sites()
	for _, want := range []string{"test.a", "test.b"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Sites() missing %q: %v", want, names)
		}
	}
	if ActiveSpec() != "" {
		t.Errorf("no plan installed but ActiveSpec = %q", ActiveSpec())
	}
}
