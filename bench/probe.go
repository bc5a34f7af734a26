package main

import (
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"time"

	xennuma "repro"
	"repro/internal/exp"
	"repro/internal/sim"
)

// epoch is the engine's simulation quantum (engine.DefaultConfig).
const epoch = 5 * sim.Millisecond

// probeCell is one cell the workload computed, parsed back from its
// suite cache key so the probe can run it through the root facade.
type probeCell struct {
	key        string
	seed       uint64 // the cell's own random stream, as the suite derived it
	kind       string // "xen", "linux" or "pair"
	app, app2  string
	pol, pol2  string
	flag       bool // xen: XenPlus; linux: MCS
	mode       xennuma.PairMode
	swap       bool
	carrefour  bool
	want       []exp.ResultSnapshot // the suite's results for the cell
	fresh      []time.Duration      // NoPool, one epoch
	pooled     []time.Duration      // warm lease, one epoch
	pooledFull []time.Duration      // warm lease, whole run
	epochs     int64
}

// Cache keys as exp.Suite writes them: "seed=N/" and the cell key.
// Application names hold neither '/' nor '='; policy names may hold '/'
// but never '='.
var (
	seededKey = regexp.MustCompile(`^seed=(\d+)/(.+)$`)
	xenKey    = regexp.MustCompile(`^xen/([^/]+)/(.+)/plus=(true|false)$`)
	linuxKey  = regexp.MustCompile(`^linux/([^/]+)/(.+)/mcs=(true|false)$`)
	pairKey   = regexp.MustCompile(`^pair/([^=/]+)=(.+?)/([^=/]+)=(.+)/mode=(\d+)/swap=(true|false)$`)
)

func parseCell(snap exp.CellSnapshot) (probeCell, error) {
	c := probeCell{key: snap.Key, want: snap.Results}
	sk := seededKey.FindStringSubmatch(snap.Key)
	if sk == nil {
		return c, fmt.Errorf("probe: unrecognised cell key %q", snap.Key)
	}
	base, err := strconv.ParseUint(sk[1], 10, 64)
	if err != nil {
		return c, fmt.Errorf("probe: cell key %q: %v", snap.Key, err)
	}
	key := sk[2]
	c.seed = cellSeed(base, key)
	if m := xenKey.FindStringSubmatch(key); m != nil {
		c.kind, c.app, c.pol, c.flag = "xen", m[1], m[2], m[3] == "true"
	} else if m := linuxKey.FindStringSubmatch(key); m != nil {
		c.kind, c.app, c.pol, c.flag = "linux", m[1], m[2], m[3] == "true"
	} else if m := pairKey.FindStringSubmatch(key); m != nil {
		mode, _ := strconv.Atoi(m[5])
		c.kind, c.app, c.pol, c.app2, c.pol2 = "pair", m[1], m[2], m[3], m[4]
		c.mode, c.swap = xennuma.PairMode(mode), m[6] == "true"
	} else {
		return c, fmt.Errorf("probe: unrecognised cell key %q", snap.Key)
	}
	c.carrefour = strings.Contains(c.pol+c.pol2, "carrefour")
	return c, nil
}

// cellSeed is the seed exp.Suite gives the cell with the given key at
// base seed base (internal/exp/scheduler.go): FNV-1a of the key mixed
// with the base and finished with SplitMix64. The probe checks every
// cell it reruns against the suite's own result, so a drift between the
// two copies fails the run instead of timing another cell.
func cellSeed(base uint64, key string) uint64 {
	if base == 0 {
		base = 1
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	z := h ^ (base * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// exec runs the cell once under o.
func (c *probeCell) exec(o xennuma.Options) ([]xennuma.Result, error) {
	pol, err := xennuma.ParsePolicy(c.pol)
	if err != nil {
		return nil, err
	}
	switch c.kind {
	case "xen":
		o.XenPlus = c.flag
		r, err := xennuma.RunXen(c.app, pol, o)
		return []xennuma.Result{r}, err
	case "linux":
		o.MCS = c.flag
		r, err := xennuma.RunLinux(c.app, pol, o)
		return []xennuma.Result{r}, err
	}
	pol2, err := xennuma.ParsePolicy(c.pol2)
	if err != nil {
		return nil, err
	}
	o.XenPlus = true
	a, b, err := xennuma.RunXenPair(c.app, pol, c.app2, pol2, c.mode, c.swap, o)
	return []xennuma.Result{a, b}, err
}

// sampleCells picks n of the cells a unit computed, chosen by seed: half
// with Carrefour and half without where the set has both, so both epoch
// kinds are timed.
func sampleCells(cells []exp.CellSnapshot, n int, seed uint64) ([]probeCell, error) {
	var groups [2][]probeCell
	for _, snap := range cells {
		c, err := parseCell(snap)
		if err != nil {
			return nil, err
		}
		if c.carrefour {
			groups[0] = append(groups[0], c)
		} else {
			groups[1] = append(groups[1], c)
		}
	}
	rng := splitmix(seed ^ 0x70726f6265) // "probe"
	for _, g := range groups {
		shuffle(g, &rng)
	}
	// Half from each group; a group too small for its half leaves the
	// rest to the other.
	plain := min(n-min(n/2, len(groups[0])), len(groups[1]))
	withC := min(n-plain, len(groups[0]))
	return append(groups[0][:withC:withC], groups[1][:plain]...), nil
}

// probe times each cell reps times in three variants. A fresh start is
// a NoPool run cut at one epoch: cold build, materialisation and one
// epoch. A pooled start is the same cut run on a warm lease: reset,
// materialisation and one epoch. A pooled full run is the whole cell on
// a warm lease, so the loop costs pooled full minus pooled start. Each
// cell runs at the scale and with the seed the suite gave it, and its
// NoPool result must equal the suite's own result for it; every pooled
// full result must equal that NoPool run bit for bit, and every cut run
// must report TimedOut. So the probe times the cells the workload ran.
func probe(cells []probeCell, scale int, reps int) error {
	timed := func(o xennuma.Options, c *probeCell) ([]xennuma.Result, time.Duration, error) {
		t0 := time.Now()
		res, err := c.exec(o)
		return res, time.Since(t0), err
	}
	for i := range cells {
		c := &cells[i]
		base := xennuma.Options{Scale: scale, Seed: c.seed}
		ref := base
		ref.NoPool = true
		want, err := c.exec(ref)
		if err != nil {
			return fmt.Errorf("probe %s: %v", c.key, err)
		}
		if !reflect.DeepEqual(snapshots(want), c.want) {
			return fmt.Errorf("probe %s: NoPool rerun differs from the workload's result for the cell", c.key)
		}
		c.epochs = int64((maxCompletion(want) + epoch - 1) / epoch)
		for r := 0; r < reps; r++ {
			cut := ref
			cut.MaxTime = epoch
			res, d, err := timed(cut, c)
			if err = checkCut(c, res, err); err != nil {
				return err
			}
			c.fresh = append(c.fresh, d)

			pooled := base
			pooled.Pool = xennuma.NewPool()
			pooled.MaxTime = epoch
			if _, err := c.exec(pooled); err != nil { // the warm-up lease
				return fmt.Errorf("probe %s: %v", c.key, err)
			}
			res, d, err = timed(pooled, c)
			if err = checkCut(c, res, err); err != nil {
				return err
			}
			c.pooled = append(c.pooled, d)

			pooled.MaxTime = 0
			res, d, err = timed(pooled, c)
			if err != nil {
				return fmt.Errorf("probe %s: %v", c.key, err)
			}
			if !reflect.DeepEqual(res, want) {
				return fmt.Errorf("probe %s: pooled result differs from NoPool", c.key)
			}
			c.pooledFull = append(c.pooledFull, d)
		}
	}
	return nil
}

func checkCut(c *probeCell, res []xennuma.Result, err error) error {
	if err != nil {
		return fmt.Errorf("probe %s: %v", c.key, err)
	}
	for _, r := range res {
		if !r.TimedOut {
			return fmt.Errorf("probe %s: run cut at one epoch did not report TimedOut", c.key)
		}
	}
	return nil
}

// snapshots converts results to the fields exp.Suite.Snapshot keeps, the
// ones the workloads' tables read.
func snapshots(res []xennuma.Result) []exp.ResultSnapshot {
	out := make([]exp.ResultSnapshot, len(res))
	for i, r := range res {
		s := exp.ResultSnapshot{
			App: r.App, Backend: r.Backend, Completion: int64(r.Completion), TimedOut: r.TimedOut,
			InitTime: int64(r.InitTime), Imbalance: r.Imbalance, InterconnectLoad: r.InterconnectLoad,
			Locality: r.Locality, Migrated: r.Migrated,
		}
		if st := r.Stats; st != nil {
			s.RemoteAccesses, s.TotalAccesses, s.PagesMigrated = st.RemoteAccesses, st.TotalAccesses, st.PagesMigrated
			s.Hypercalls, s.HypercallNanos = st.Hypercalls, st.HypercallNanos
			s.IPIOverhead, s.IOSeconds = st.IPIOverhead, st.IOSeconds
		}
		out[i] = s
	}
	return out
}

func maxCompletion(res []xennuma.Result) sim.Time {
	var m sim.Time
	for _, r := range res {
		m = max(m, r.Completion)
	}
	return m
}

// probeMetrics summarises the probe: median fresh and pooled starts over
// every run, the median cell's loop, the share of pooled cell time spent
// before the loop, and loop nanoseconds per simulated epoch for cells
// with and without Carrefour.
func probeMetrics(cells []probeCell, m map[string]metric) {
	var fresh, pooled, loops []float64
	var startSum, fullSum float64
	var loopNs, epochs [2]float64
	for _, c := range cells {
		fresh = append(fresh, msOf(c.fresh)...)
		pooled = append(pooled, msOf(c.pooled)...)
		start, full := median(msOf(c.pooled)), median(msOf(c.pooledFull))
		loop := max(full-start, 0)
		loops = append(loops, loop)
		startSum += start
		fullSum += full
		k := 1
		if c.carrefour {
			k = 0
		}
		loopNs[k] += loop * 1e6
		epochs[k] += float64(c.epochs)
	}
	m["cell.fresh_start_ms"] = metric{median(fresh), "ms"}
	m["cell.pooled_start_ms"] = metric{median(pooled), "ms"}
	m["cell.loop_ms"] = metric{median(loops), "ms"}
	m["cell.start_share"] = metric{ratio(startSum, fullSum), "ratio"}
	m["engine.ns_per_sim_epoch.carrefour"] = metric{ratio(loopNs[0], epochs[0]), "ns"}
	m["engine.ns_per_sim_epoch.plain"] = metric{ratio(loopNs[1], epochs[1]), "ns"}
}
