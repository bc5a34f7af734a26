package exp

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/iosim"
	"repro/internal/ipi"
	"repro/internal/metrics"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/workload"
)

// Abbrev maps policy names to the paper's Table 4 shorthand through the
// policy registry ("round-4k/carrefour" → "R4K/C", "bind:3" → "B3",
// "ft/carrefour:migration" → "FT/Cm"); unknown names pass through
// unchanged.
func Abbrev(pol string) string {
	cfg, err := policy.Parse(pol)
	if err != nil {
		return pol
	}
	a := policy.Abbrev(cfg.Static)
	if cfg.Carrefour {
		a += "/C"
		switch cfg.CarrefourVariant {
		case policy.CarrefourMigrationOnly:
			a += "m"
		case policy.CarrefourReplicationOnly:
			a += "r"
		}
	}
	return a
}

// Fig1 reports the overhead of stock Xen (round-1G, dom0 I/O, no MCS)
// relative to stock Linux (first-touch) for every application.
func Fig1(s *Suite) *Table {
	t := &Table{
		ID:     "fig1",
		Title:  "Relative overhead of Xen compared to Linux (lower is better)",
		Header: []string{"app", "linux", "xen", "overhead"},
	}
	apps := Apps()
	cells := nameAll(apps, func(app string) [2]*Cell {
		return [2]*Cell{s.Linux(app, "first-touch", false), s.Xen(app, "round-1g", false)}
	})
	over50, over100 := 0, 0
	for i, app := range apps {
		l, x := cells[i][0].Result(), cells[i][1].Result()
		ov := float64(x.Completion)/float64(l.Completion) - 1
		if ov > 0.5 {
			over50++
		}
		if ov > 1.0 {
			over100++
		}
		t.Rows = append(t.Rows, []string{app, l.Completion.String(), x.Completion.String(), pct(ov)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d applications above 50%% overhead, %d above 100%% (paper: 15 and 11)", over50, over100))
	return t
}

// Fig2 reports the improvement of each Linux NUMA policy over
// first-touch.
func Fig2(s *Suite) *Table {
	t := &Table{
		ID:     "fig2",
		Title:  "Improvement of Linux NUMA policies vs first-touch (higher is better)",
		Header: []string{"app", "ft/carrefour", "round-4k", "r4k/carrefour", "best(paper)"},
	}
	apps := Apps()
	sweeps := nameAll(apps, func(app string) sweep { return s.linuxSweep(app, false) })
	for i, app := range apps {
		w := sweeps[i]
		ft := w.result("first-touch")
		impr := func(pol string) string {
			r := w.result(pol)
			return pct(float64(ft.Completion)/float64(r.Completion) - 1)
		}
		prof, _ := workload.Get(app)
		t.Rows = append(t.Rows, []string{app,
			impr("first-touch/carrefour"), impr("round-4k"), impr("round-4k/carrefour"),
			prof.PaperBestLinux})
	}
	return t
}

// Table1 reports memory-access imbalance and interconnect load under the
// two static Linux policies, with the paper's values alongside.
func Table1(s *Suite) *Table {
	t := &Table{
		ID:    "table1",
		Title: "Static policy behaviour in Linux (measured vs paper)",
		Header: []string{"app",
			"imb FT", "(paper)", "imb R4K", "(paper)",
			"link FT", "(paper)", "link R4K", "(paper)", "class", "(paper)"},
	}
	apps := Apps()
	cells := nameAll(apps, func(app string) [2]*Cell {
		return [2]*Cell{s.Linux(app, "first-touch", false), s.Linux(app, "round-4k", false)}
	})
	match := 0
	for i, app := range apps {
		prof, _ := workload.Get(app)
		ft, r4 := cells[i][0].Result(), cells[i][1].Result()
		class := metrics.Classify(ft.Imbalance)
		paperClass := metrics.Classify(prof.PaperFTImb)
		if class == paperClass {
			match++
		}
		t.Rows = append(t.Rows, []string{app,
			f0(ft.Imbalance) + "%", f0(prof.PaperFTImb) + "%",
			f0(r4.Imbalance) + "%", f0(prof.PaperR4KImb) + "%",
			f0(ft.InterconnectLoad) + "%", f0(prof.PaperFTLink) + "%",
			f0(r4.InterconnectLoad) + "%", f0(prof.PaperR4KLink) + "%",
			class.String(), paperClass.String()})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("imbalance class matches the paper for %d/%d applications", match, len(apps)))
	return t
}

// Table2 reports the behaviour parameters of each application profile.
func Table2(*Suite) *Table {
	t := &Table{
		ID:     "table2",
		Title:  "Application behaviour (profile inputs, from the paper's Table 2)",
		Header: []string{"app", "suite", "disk MB/s", "ctx k/s", "footprint MB", "releases/s/core"},
	}
	for _, p := range workload.All() {
		t.Rows = append(t.Rows, []string{p.Name, p.Suite,
			f0(p.DiskMBps), fmt.Sprintf("%.1f", p.CtxSwitchKps), f0(p.FootprintMB), f0(p.ReleasesPerSec)})
	}
	return t
}

// Table3 reports the cache and memory access latencies of the machine
// model in the uncontended (1 thread) and contended (48 threads on one
// node) cases.
func Table3(*Suite) *Table {
	lm := numa.DefaultLatency()
	t := &Table{
		ID:     "table3",
		Title:  "Cache and memory access latency on AMD48 (cycles)",
		Header: []string{"access", "1 thread", "(paper)", "48 threads", "(paper)"},
	}
	t.Rows = append(t.Rows,
		[]string{"L1 cache", f0(float64(lm.L1Cycles)), "5", "-", "-"},
		[]string{"L2 cache", f0(float64(lm.L2Cycles)), "16", "-", "-"},
		[]string{"L3 cache", f0(float64(lm.L3Cycles)), "48", "-", "-"},
		[]string{"local", f0(lm.AccessCycles(0, 0, 0)), "156", f0(lm.AccessCycles(0, 1, 0)), "697"},
		[]string{"remote (1 hop)", f0(lm.AccessCycles(1, 0, 0)), "276", f0(lm.AccessCycles(1, 1, 0)), "740"},
		[]string{"remote (2 hops)", f0(lm.AccessCycles(2, 0, 0)), "383", f0(lm.AccessCycles(2, 1, 0)), "863"},
	)
	t.Notes = append(t.Notes, "contended = destination controller at full utilization; the model charges the controller queueing penalty uniformly, so contended remote runs slightly above the paper's measurement")
	return t
}

// Table4 reports the best policy per application in native Linux and in
// Xen+, next to the paper's choices.
func Table4(s *Suite) *Table {
	t := &Table{
		ID:     "table4",
		Title:  "Best NUMA policies (measured vs paper)",
		Header: []string{"app", "LinuxNUMA", "(paper)", "Xen+NUMA", "(paper)"},
	}
	apps := Apps()
	sweeps := nameAll(apps, s.numaSweeps)
	matchL, matchX := 0, 0
	for i, app := range apps {
		prof, _ := workload.Get(app)
		lp, _ := sweeps[i].linux.best()
		xp, _ := sweeps[i].xen.best()
		if Abbrev(lp) == prof.PaperBestLinux {
			matchL++
		}
		if Abbrev(xp) == prof.PaperBestXen {
			matchX++
		}
		t.Rows = append(t.Rows, []string{app, Abbrev(lp), prof.PaperBestLinux, Abbrev(xp), prof.PaperBestXen})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("exact match with the paper: Linux %d/29, Xen+ %d/29 (ties between near-equal policies flip freely)", matchL, matchX))
	return t
}

// Fig5 reports the IPI cost repartition.
func Fig5(*Suite) *Table {
	t := &Table{
		ID:     "fig5",
		Title:  "IPI cost repartition (ns)",
		Header: []string{"stage", "native", "guest"},
	}
	for _, st := range ipi.Breakdown() {
		t.Rows = append(t.Rows, []string{st.Name, st.Native.String(), st.Guest.String()})
	}
	t.Rows = append(t.Rows, []string{"total", ipi.NativeCost().String(), ipi.GuestCost().String()})
	t.Notes = append(t.Notes, "paper totals: 0.9 µs native, 10.9 µs guest")
	return t
}

// Fig6 reports the overhead of Linux, Xen and Xen+ relative to
// LinuxNUMA.
func Fig6(s *Suite) *Table {
	t := &Table{
		ID:     "fig6",
		Title:  "Overhead of Linux, Xen and Xen+ vs LinuxNUMA (lower is better)",
		Header: []string{"app", "linux", "xen", "xen+", "linuxNUMA policy"},
	}
	type cells struct {
		linuxNUMA sweep
		l, x, xp  *Cell
	}
	apps := Apps()
	named := nameAll(apps, func(app string) cells {
		return cells{s.linuxSweep(app, true),
			s.Linux(app, "first-touch", false), s.Xen(app, "round-1g", false), s.Xen(app, "round-1g", true)}
	})
	over25, over50, over100 := 0, 0, 0
	for i, app := range apps {
		c := named[i]
		pol, base := c.linuxNUMA.best()
		ov := func(r float64) string { return pct(r/float64(base.Completion) - 1) }
		l, x, xp := c.l.Result(), c.x.Result(), c.xp.Result()
		o := float64(xp.Completion)/float64(base.Completion) - 1
		if o > 0.25 {
			over25++
		}
		if o > 0.5 {
			over50++
		}
		if o > 1.0 {
			over100++
		}
		t.Rows = append(t.Rows, []string{app,
			ov(float64(l.Completion)), ov(float64(x.Completion)), ov(float64(xp.Completion)), Abbrev(pol)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Xen+ above 25%%/50%%/100%% overhead: %d/%d/%d apps (paper: 20/14/11)", over25, over50, over100))
	return t
}

// Fig7 reports the improvement of each Xen NUMA policy over the Xen+
// default (round-1G).
func Fig7(s *Suite) *Table {
	t := &Table{
		ID:     "fig7",
		Title:  "Improvement of the NUMA policies in Xen+ vs Xen+ (higher is better)",
		Header: []string{"app", "round-4k", "first-touch", "r4k/carrefour", "ft/carrefour", "best", "(paper)"},
	}
	apps := Apps()
	sweeps := nameAll(apps, s.xenSweep)
	over100 := 0
	for i, app := range apps {
		w := sweeps[i]
		prof, _ := workload.Get(app)
		base := w.result("round-1g")
		impr := func(pol string) (string, float64) {
			r := w.result(pol)
			v := float64(base.Completion)/float64(r.Completion) - 1
			return pct(v), v
		}
		c4, v4 := impr("round-4k")
		cf, vf := impr("first-touch")
		c4c, v4c := impr("round-4k/carrefour")
		cfc, vfc := impr("first-touch/carrefour")
		bestPol, _ := w.best()
		if maxf(v4, vf, v4c, vfc) > 1.0 {
			over100++
		}
		t.Rows = append(t.Rows, []string{app, c4, cf, c4c, cfc, Abbrev(bestPol), prof.PaperBestXen})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d applications improved by more than 100%% (paper: 9)", over100))
	return t
}

// Fig10 reports Xen+ and Xen+NUMA overheads versus LinuxNUMA.
func Fig10(s *Suite) *Table {
	t := &Table{
		ID:     "fig10",
		Title:  "Overhead of Xen+ and Xen+NUMA vs LinuxNUMA (lower is better)",
		Header: []string{"app", "xen+", "xen+NUMA", "policy"},
	}
	apps := Apps()
	sweeps := nameAll(apps, s.numaSweeps)
	over50 := 0
	for i, app := range apps {
		_, base := sweeps[i].linux.best()
		xp := sweeps[i].xen.result("round-1g")
		pol, xn := sweeps[i].xen.best()
		o := float64(xn.Completion)/float64(base.Completion) - 1
		if o > 0.5 {
			over50++
		}
		t.Rows = append(t.Rows, []string{app,
			pct(float64(xp.Completion)/float64(base.Completion) - 1), pct(o), Abbrev(pol)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d applications remain above 50%% overhead with Xen+NUMA (paper: 4)", over50))
	return t
}

// IOTable reports the 4 KiB read latency and streaming capacity of the
// three DMA paths (§2.2.2).
func IOTable(*Suite) *Table {
	d := iosim.DefaultDisk()
	t := &Table{
		ID:     "io",
		Title:  "DMA path characteristics",
		Header: []string{"path", "4KiB read", "(paper)", "stream MB/s"},
	}
	paper := map[iosim.Path]string{
		iosim.PathNative: "74µs", iosim.PathPassthrough: "186µs", iosim.PathDom0: "307µs",
	}
	for _, p := range []iosim.Path{iosim.PathNative, iosim.PathPassthrough, iosim.PathDom0} {
		t.Rows = append(t.Rows, []string{p.String(),
			p.Read4KLatency().String(), paper[p], f0(p.StreamCap(d) / 1e6)})
	}
	return t
}

// HypercallTable reports the cost of the page-release notification path
// under the three designs of §4.2.3–4.2.4, for the wrmem release rate
// (one release per 15 µs per core, 48 cores).
func HypercallTable(*Suite) *Table {
	t := &Table{
		ID:     "hcall",
		Title:  "Page-release notification cost at wrmem's rate (48 cores, 15 µs/release/core)",
		Header: []string{"design", "per-release", "slowdown"},
	}
	const interval = 15000.0 // ns
	designs := []struct {
		name string
		cfg  guest.QueueConfig
	}{
		{"hypercall per release (no batching)", guest.QueueConfig{Queues: 1, BatchSize: 1, Unbatched: true}},
		{"single global queue, batch 64", guest.QueueConfig{Queues: 1, BatchSize: 64}},
		{"4 partitioned queues, batch 64 (paper)", guest.DefaultQueueConfig()},
	}
	for _, d := range designs {
		m := guest.ChurnModel{Cfg: d.cfg, Threads: 48}
		per := m.PerReleaseNs(interval)
		t.Rows = append(t.Rows, []string{d.name,
			fmt.Sprintf("%.0fns", per), fmt.Sprintf("%.2fx", 1+per/interval)})
	}
	t.Notes = append(t.Notes,
		"paper: the unbatched hypercall divides wrmem's performance by 3; batching with partitioned queues makes it negligible",
		"per full 64-entry batch, 87.5% of the hypercall time is entry invalidation and 12.5% queue transfer (§4.2.4)")
	return t
}

func maxf(xs ...float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
