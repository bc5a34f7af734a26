package exp

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

func installPlan(t *testing.T, spec string) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Install(p)
	t.Cleanup(func() { faultinject.Install(nil) })
	return p
}

// expectPanic runs f and returns the recovered panic message, failing
// the test if f returns normally.
func expectPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("call did not panic")
		}
		msg = p.(string)
	}()
	f()
	return
}

// TestErroredCellEvictedAndRetryable pins the suite's poison-pill fix:
// a cell whose execution fails twice in a row (error or recovered
// panic) is counted in CellErrors once per failure and evicted from the
// cache, so its reader sees the failure but the next naming of the same
// key recomputes and succeeds instead of replaying it forever. One
// failure alone never reaches the reader (TestSingleFaultRetriedOnWorker).
func TestErroredCellEvictedAndRetryable(t *testing.T) {
	const app, pol = "swaptions", "first-touch"
	ref := NewSuite(256)
	want := ref.Xen(app, pol, true).Result()

	for _, tc := range []struct{ name, spec, frag string }{
		{"error", "exp.cell:hit=1:action=error,exp.cell:hit=2:action=error", "exp.cell"},
		{"panic", "exp.cell:hit=1:action=panic,exp.cell:hit=2:action=panic", "panic:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSuite(256)
			plan := installPlan(t, tc.spec)
			msg := expectPanic(t, func() { s.Xen(app, pol, true).Result() })
			if !strings.Contains(msg, tc.frag) {
				t.Fatalf("panic %q does not mention %q", msg, tc.frag)
			}
			if s.CellErrors() != 2 {
				t.Fatalf("CellErrors = %d, want 2", s.CellErrors())
			}
			if n := len(s.CacheKeys()); n != 0 {
				t.Fatalf("errored cell retained: %d cache keys", n)
			}
			if plan.Fired("exp.cell") != 2 {
				t.Fatalf("site fired %d times, want 2", plan.Fired("exp.cell"))
			}
			// The fault is exhausted: naming the key again recomputes it
			// and matches the fault-free reference bit for bit.
			if got := s.Xen(app, pol, true).Result(); !reflect.DeepEqual(got, want) {
				t.Fatalf("retry diverged: %+v != %+v", got, want)
			}
			if s.CellsComputed() != 3 || s.CellErrors() != 2 {
				t.Fatalf("computed/errors = %d/%d, want 3/2",
					s.CellsComputed(), s.CellErrors())
			}
		})
	}
}

// TestSingleFaultRetriedOnWorker: one failed execution stays invisible.
// The worker retries the cell at once, so its reader gets the
// fault-free result from the one task the naming submitted; the failure
// still shows in CellErrors and the retry in CellsComputed.
func TestSingleFaultRetriedOnWorker(t *testing.T) {
	const app, pol = "swaptions", "first-touch"
	ref := NewSuite(256)
	want := ref.Xen(app, pol, true).Result()

	for _, action := range []string{"error", "panic"} {
		t.Run(action, func(t *testing.T) {
			s := NewSuiteParallel(256, 2)
			plan := installPlan(t, "exp.cell:hit=1:action="+action)
			if got := s.Xen(app, pol, true).Result(); !reflect.DeepEqual(got, want) {
				t.Fatalf("retried cell diverged: %+v != %+v", got, want)
			}
			if s.CellsComputed() != 2 || s.CellErrors() != 1 {
				t.Fatalf("computed/errors = %d/%d, want 2/1", s.CellsComputed(), s.CellErrors())
			}
			if submitted, _ := s.SchedulerStats(); submitted != 1 {
				t.Fatalf("submitted %d tasks, want 1: the retry must stay on the worker", submitted)
			}
			if plan.Fired("exp.cell") != 1 {
				t.Fatalf("site fired %d times, want 1", plan.Fired("exp.cell"))
			}
		})
	}
}
