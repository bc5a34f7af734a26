package engine

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/carrefour"
	"repro/internal/iosim"
	"repro/internal/ipi"
	"repro/internal/metrics"
	"repro/internal/numa"
	"repro/internal/sim"
)

// Config parameterizes a run.
type Config struct {
	Topo *numa.Topology
	Seed uint64
	// Epoch is the simulation quantum.
	Epoch sim.Time
	// CarrefourEvery is the decision interval in epochs.
	CarrefourEvery int
	// MaxTime aborts runaway runs.
	MaxTime sim.Time
	// CtrlBWBps is the per-node memory controller bandwidth (13 GiB/s on
	// AMD48).
	CtrlBWBps float64
	// Scale divides application footprints (the machine must be built
	// with banks divided by the same factor).
	Scale int
	Disk  iosim.Disk
	// Carrefour tunes the dynamic policy's thresholds.
	Carrefour carrefour.Config
	// TLB, when non-nil, charges address-translation overhead per
	// access (the paper's §7 large-page extension). Nil preserves the
	// paper's baseline, which does not model TLBs.
	TLB *numa.TLBModel
}

// DefaultConfig returns the standard configuration for a machine scaled
// by scale.
func DefaultConfig(topo *numa.Topology, scale int) Config {
	return Config{
		Topo:           topo,
		Seed:           1,
		Epoch:          5 * sim.Millisecond,
		CarrefourEvery: 20,
		MaxTime:        300 * sim.Second,
		CtrlBWBps:      13 * (1 << 30),
		Scale:          scale,
		Disk:           iosim.DefaultDisk(),
		Carrefour:      carrefour.DefaultConfig(),
	}
}

// Result is one instance's outcome.
type Result struct {
	App        string
	Backend    string
	Completion sim.Time
	TimedOut   bool
	InitTime   sim.Time

	Imbalance        float64
	InterconnectLoad float64
	Locality         float64
	Migrated         uint64
	Stats            *metrics.RunStats
}

// Run executes the instances to completion and returns one result each.
// All instances share the machine: their memory traffic contends on the
// same controllers and links.
func Run(cfg Config, insts ...*Instance) ([]Result, error) {
	if cfg.Epoch <= 0 || cfg.Scale <= 0 || len(insts) == 0 {
		return nil, fmt.Errorf("engine: invalid config or no instances")
	}
	r := &runner{cfg: cfg, insts: insts, rand: sim.NewRand(cfg.Seed)}
	if err := r.setup(); err != nil {
		return nil, err
	}
	r.loop()
	return r.results()
}

type runner struct {
	cfg   Config
	insts []*Instance
	rand  *sim.Rand

	load      *metrics.EpochLoad   // machine-wide, for contention
	instLoads []*metrics.EpochLoad // per instance, for its statistics
	stats     []*metrics.RunStats
	ctrls     []*carrefour.Controller
	initTimes []sim.Time
	ctrlUtil  []float64
	now       sim.Time
	// unitsScratch[i][t] is thread t of instance i's work units this
	// epoch, recorded during the final fill.
	units [][]float64

	// Run-constant node geometry, hoisted out of the fixed-point loop:
	// nNodes is the node count and cost the shared pair cost model for
	// cfg.Topo (hop counts, base cycles and contention coefficients),
	// fetched from a process-wide cache so every runner on the same
	// topology — the whole sweep batch — reuses one; freqGHz mirrors the
	// latency model's frequency so the hot loop converts cycles to
	// nanoseconds without copying the model.
	nNodes  int
	cost    *numa.AccessCostModel
	freqGHz float64

	// Converged-epoch fast-path state: converged is set after a full
	// epoch proved itself a fixed point (see epoch); latChanged is the
	// epoch-scoped flag updateLatencies raises on any bitwise latency
	// movement; convergedEpochs counts skipped epochs for the white-box
	// tests. noConverge, set only by engine tests, disables the fast path
	// so they can compare it with, or time, the full kernel; results are
	// bit-for-bit identical either way.
	converged       bool
	latChanged      bool
	convergedEpochs uint64
	noConverge      bool

	// Scratch buffers, reused so steady-state epochs allocate nothing.
	//xnuma:scratch
	movePairs  [][2]numa.NodeID // sorted pendingMoveBytes keys
	tickUtil   []float64        // controller-utilization copy for Carrefour ticks
	cycles     []float64        // per-(src,dst) access cost, filled each iteration
	linkUtil   []float64        // per-link utilization snapshot, one per iteration
	ctrlPen    []float64        // per-destination controller penalty, one per iteration
	groupUnits []float64        // per-dedup-group work units, summed each fill
	groupCyc   []float64        // per-dedup-group access cycles, one per iteration

	// Carrefour-tick scratch: the tick rebuilds the sampler view from
	// the stream table every interval, so the backing stores are reused.
	// moves[from*nNodes+to] counts the pages pageSet.Migrate moved
	// between the pair this tick; setup sizes it once.
	moves    []int
	shared   []float64          // running-thread node distribution
	accArena []float64          // per-sample accessor rows, carved per tick
	pageSets []pageSet          // sample adapter arena
	sampBuf  []carrefour.Sample // sampler view handed to Controller.Step
}

func (r *runner) setup() error {
	epochSec := float64(r.cfg.Epoch) / 1e9
	n := r.cfg.Topo.NumNodes()
	r.load = metrics.NewEpochLoad(r.cfg.Topo, epochSec, r.cfg.CtrlBWBps)
	r.ctrlUtil = make([]float64, n)
	r.nNodes = n
	r.cycles = make([]float64, n*n)
	r.linkUtil = make([]float64, len(r.cfg.Topo.Links))
	r.ctrlPen = make([]float64, n)
	r.moves = make([]int, n*n)
	r.cost = costModelFor(r.cfg.Topo)
	r.freqGHz = r.cfg.Topo.Latency.FreqGHz
	for _, in := range r.insts {
		if err := in.Prof.Validate(); err != nil {
			return err
		}
		if in.NThreads <= 0 {
			return fmt.Errorf("engine: instance %s has no threads", in.Prof.Name)
		}
		r.instLoads = append(r.instLoads, metrics.NewEpochLoad(r.cfg.Topo, epochSec, r.cfg.CtrlBWBps))
		r.stats = append(r.stats, metrics.NewRunStats(r.cfg.Topo))
		ccfg := r.cfg.Carrefour
		if in.CarrefourMode != carrefour.ModeFull {
			// A per-instance variant overrides the run config's mode;
			// the zero value defers to it.
			ccfg.Mode = in.CarrefourMode
		}
		r.ctrls = append(r.ctrls, carrefour.New(ccfg))
		r.units = append(r.units, make([]float64, in.NThreads))
		if err := r.buildInstance(in); err != nil {
			return err
		}
		r.hoistRunConstants(in, epochSec)
	}
	maxThreads := 0
	for _, in := range r.insts {
		if in.NThreads > maxThreads {
			maxThreads = in.NThreads
		}
	}
	r.groupUnits = make([]float64, maxThreads)
	r.groupCyc = make([]float64, maxThreads)
	r.initTimes = make([]sim.Time, len(r.insts))
	for i, in := range r.insts {
		t, err := r.materialize(in)
		if err != nil {
			return fmt.Errorf("engine: materializing %s: %w", in.Prof.Name, err)
		}
		r.initTimes[i] = t
	}
	return nil
}

// hoistRunConstants precomputes the per-instance values the fixed-point
// iterations used to re-derive every pass: they depend only on the
// profile, the backend and the run configuration, none of which change
// after setup. Each hoisted expression is kept verbatim so the values
// are bit-for-bit what the inline computation produced.
func (r *runner) hoistRunConstants(in *Instance, epochSec float64) {
	in.cpuNsPerUnit = in.Prof.CPUNsPerUnit()
	in.overhead = r.overheadFrac(in)
	if r.cfg.TLB != nil {
		ws := in.footprintBytes * in.Prof.WorkingSet / float64(in.NThreads)
		in.tlbCycles = r.cfg.TLB.WalkPenaltyCycles(ws, in.LargePages, in.Backend.Virtualized())
	}
	if in.ioStream.DemandBps > 0 {
		path, _ := in.Backend.IO()
		delivered, progress := in.ioStream.Delivered(path, r.cfg.Disk)
		in.ioProgress = progress
		bytes := delivered * epochSec
		targets := in.ioStream.HomeNodes
		if in.ioStream.Placement != iosim.BufferScattered || len(targets) == 0 {
			in.ioTargetBuf[0] = in.ioStream.BufferNode
			targets = in.ioTargetBuf[:]
		}
		in.ioTargets = targets
		in.ioPerTarget = bytes / float64(len(targets))
	}
}

// buildInstance creates threads and sizes regions. Storage a previous
// run left on the instance is reset in place and grown or shrunk to
// NThreads, so rerunning a pooled instance allocates only for threads
// and regions it never had.
func (r *runner) buildInstance(in *Instance) error {
	nNodes := r.cfg.Topo.NumNodes()
	idealNs := in.Prof.CPUNsPerUnit() + 71.0
	in.workPerThread = in.Prof.BaselineSeconds * 1e9 / idealNs
	in.Threads = resized(in.Threads, in.NThreads)
	for i, t := range in.Threads {
		if t == nil {
			t = new(Thread)
			in.Threads[i] = t
		}
		*t = Thread{
			ID:       i,
			Node:     in.Backend.ThreadNode(i),
			CPUShare: in.Backend.CPUShare(i),
			WorkLeft: in.workPerThread,
			latNs:    100,
		}
	}
	in.hot = resetRegion(in.hot, "hot", RegionHot, 0, nNodes)
	in.master = resetRegion(in.master, "master", RegionMaster, 0, nNodes)
	in.dist = resized(in.dist, in.NThreads)
	in.priv = resized(in.priv, in.NThreads)
	for i := range in.dist {
		in.dist[i] = resetRegion(in.dist[i], "dist", RegionDist, i, nNodes)
		in.priv[i] = resetRegion(in.priv[i], "priv", RegionPrivate, i, nNodes)
	}
	clear(in.pendingMoveBytes)
	in.burstLeft, in.burstNode, in.burstRegion = 0, 0, nil
	in.done, in.Completion = false, 0
	in.foldSum, in.foldLive, in.foldValid = 0, 0, false
	in.tlbCycles = 0
	in.ioProgress, in.ioPerTarget, in.ioTargets = 0, 0, nil
	pages := int(in.Prof.FootprintMB * (1 << 20) / float64(r.cfg.Scale) / 4096)
	if pages < 512 {
		pages = 512
	}
	in.footprintBytes = float64(pages) * 4096
	hotPages := pages / 5000
	if hotPages < 8 {
		hotPages = 8
	}
	if hotPages > 512 {
		hotPages = 512
	}
	rest := pages - hotPages
	_, wM, wP, wD := in.weights()
	denom := wM + wP + wD
	if denom <= 0 {
		denom = 1
		wD = 1
	}
	masterPages := int(float64(rest) * wM / denom)
	privPages := int(float64(rest) * wP / denom)
	distPages := rest - masterPages - privPages
	in.sizes = regionSizes{hot: hotPages, master: masterPages, priv: privPages, dist: distPages}
	if ws := in.Prof.WorkingSet; ws > 0 && ws < 1 {
		head := func(n int) int {
			h := int(ws * float64(n))
			if h < 1 {
				h = 1
			}
			return h
		}
		in.master.SetAccessHead(head(masterPages))
		for i := 0; i < in.NThreads; i++ {
			in.dist[i].SetAccessHead(head(distPages / in.NThreads))
			in.priv[i].SetAccessHead(head(privPages / in.NThreads))
		}
	}

	_, placement := in.Backend.IO()
	in.ioStream = iosim.Stream{
		DemandBps:  in.Prof.DiskMBps * 1.06e6,
		ReqBytes:   in.Prof.DiskReqBytes,
		Placement:  placement,
		BufferNode: r.cfg.Disk.Node,
		HomeNodes:  in.Backend.HomeNodes(),
		Penalty:    in.Prof.IOPenalty,
	}
	if in.pendingMoveBytes == nil {
		in.pendingMoveBytes = make(map[[2]numa.NodeID]float64)
	}
	return nil
}

// resized returns s with length n. Elements it keeps, including those a
// previous shrink left past its length, stay; slots it never held are
// nil.
func resized[T any](s []*T, n int) []*T {
	if n > cap(s) {
		s = slices.Grow(s, n-len(s))
	}
	return s[:n]
}

// materialize first-touches every region with its natural toucher: the
// master thread touches the hot and master regions, each thread its
// private region and its slice of the distributed region. The time is
// charged to the touching threads as debt (the application's init
// phase). A failed placement (the machine is out of memory) stops it
// with the backend's error.
func (r *runner) materialize(in *Instance) (sim.Time, error) {
	var total sim.Time
	charge := func(t *Thread, d sim.Time) {
		t.DebtNs += float64(d)
		if d > total {
			total = d
		}
	}
	// Each region takes the next window of the instance's page storage,
	// sized here for the whole footprint, before the backend appends its
	// pages one by one.
	size := in.sizes.hot + in.sizes.master + in.sizes.dist + in.sizes.priv
	in.pageBuf = slices.Grow(in.pageBuf[:0], size)
	in.nodeBuf = slices.Grow(in.nodeBuf[:0], size)
	off := 0
	place := func(reg *Region, n int, toucher numa.NodeID) (sim.Time, error) {
		reg.Pages, reg.nodes = in.pageBuf[off:off:off+n], in.nodeBuf[off:off:off+n]
		off += n
		return in.Backend.Place(reg, n, toucher)
	}
	master := in.Threads[0]
	cost, err := place(in.hot, in.sizes.hot, master.Node)
	if err == nil {
		charge(master, cost)
		cost, err = place(in.master, in.sizes.master, master.Node)
	}
	if err == nil {
		charge(master, cost)
		slice := in.sizes.dist / in.NThreads
		for _, t := range in.Threads {
			want := slice
			if t.ID == in.NThreads-1 {
				want = in.sizes.dist - slice*(in.NThreads-1)
			}
			if cost, err = place(in.dist[t.ID], want, t.Node); err != nil {
				break
			}
			charge(t, cost)
		}
	}
	if err == nil {
		per := in.sizes.priv / in.NThreads
		for _, t := range in.Threads {
			if cost, err = place(in.priv[t.ID], per, t.Node); err != nil {
				break
			}
			charge(t, cost)
		}
	}
	return total, err
}

func (r *runner) loop() {
	maxEpochs := int(r.cfg.MaxTime / r.cfg.Epoch)
	for step := 0; step < maxEpochs; step++ {
		r.now = sim.Time(step) * r.cfg.Epoch
		if r.allDone() {
			return
		}
		r.epoch(step)
	}
	// Timed out: mark unfinished instances.
	for _, in := range r.insts {
		if !in.done {
			in.done = true
			in.Completion = r.cfg.MaxTime
			for _, t := range in.Threads {
				if !t.Done {
					t.Done = true
					t.DoneAt = r.cfg.MaxTime
				}
			}
		}
	}
}

// epoch advances the simulation by one quantum: refresh each live
// instance's stream table, couple rates and latencies, apply progress,
// fold the epoch into the statistics, and run due Carrefour ticks.
//
// Once a full epoch proves itself a fixed point — no debt, bursts or
// pending migration traffic on entry, no bitwise latency movement
// across the iterations, no completion, no Carrefour tick — every
// input to the next epoch's fill/latency passes is bitwise unchanged,
// so their outputs (r.units, the per-instance loads, the latencies)
// would be reproduced exactly. Subsequent epochs skip straight to
// progress and statistics on the stale-but-identical state, until a
// completion or a tick perturbs the fixed point.
//
//xnuma:noalloc
func (r *runner) epoch(step int) {
	if r.converged && !r.noConverge {
		r.convergedEpochs++
		completed := r.progress()
		for i := range r.insts {
			r.stats[i].Observe(r.instLoads[i])
		}
		if r.runTicks(step) || completed {
			r.converged = false
		}
		return
	}
	// candidate: at entry, every live instance is in steady state — no
	// stall debt to pay down, no decaying burst, no one-off migration
	// traffic. Evaluated before the passes below consume any of it.
	candidate := true
	for _, in := range r.insts {
		if in.done {
			continue
		}
		if in.burstLeft > 0 || len(in.pendingMoveBytes) > 0 {
			candidate = false
			break
		}
		for _, t := range in.Threads {
			if !t.Done && t.DebtNs != 0 {
				candidate = false
				break
			}
		}
		if !candidate {
			break
		}
	}
	for _, in := range r.insts {
		if !in.done {
			in.refreshStreams()
		}
	}
	// Damped fixed-point iterations couple access rates and latency
	// (undamped, saturated configurations oscillate between idle and
	// saturated estimates).
	r.latChanged = false
	const iters = 4
	for iter := 0; iter < iters; iter++ {
		r.fillLoads(iter == iters-1)
		r.updateLatencies()
	}
	completed := r.progress()
	for i := range r.insts {
		r.stats[i].Observe(r.instLoads[i])
	}
	ticked := r.runTicks(step)
	r.converged = candidate && !r.latChanged && !completed && !ticked
}

// runTicks runs due Carrefour ticks and reports whether any ran. Ticks
// are never skipped by the converged fast path: their random draws must
// consume the run's deterministic stream at the same points either way.
//
//xnuma:noalloc
func (r *runner) runTicks(step int) bool {
	if r.cfg.CarrefourEvery <= 0 || step%r.cfg.CarrefourEvery != 0 {
		return false
	}
	ran := false
	for i, in := range r.insts {
		if in.Carrefour && !in.done {
			r.carrefourTick(i, in)
			ran = true
		}
	}
	return ran
}

func (r *runner) allDone() bool {
	for _, in := range r.insts {
		if !in.done {
			return false
		}
	}
	return true
}

// fillLoads recomputes the epoch's traffic from current latency
// estimates by walking each live thread's folded node row (the stream
// table collapsed by foldRows — streams never appear here). When record
// is true, per-thread work units are captured for the progress step and
// per-instance loads are filled.
//
//xnuma:noalloc
func (r *runner) fillLoads(record bool) {
	r.load.Reset()
	epochNs := float64(r.cfg.Epoch)
	nn := r.nNodes
	for i, in := range r.insts {
		il := r.instLoads[i]
		if record {
			il.Reset()
		}
		if in.done {
			continue
		}
		ioFactor := r.ioFactor(in, record, il)
		var totalMisses float64
		gu := r.groupUnits[:len(in.groupRep)]
		for g := range gu {
			gu[g] = 0
		}
		for ti, t := range in.Threads {
			if t.Done {
				continue
			}
			budget := epochNs * t.CPUShare
			avail := budget - t.DebtNs
			if avail < 0 {
				avail = 0
			}
			eff := avail * (1 - in.overhead) * ioFactor
			units := eff / (in.cpuNsPerUnit + t.latNs)
			if record {
				r.units[i][ti] = units
			}
			totalMisses += units
			gu[in.groupOf[ti]] += units
		}
		// Emit one summed row per dedup group: threads in a group share
		// node and row bit-for-bit, so (Σ units) · share is their exact
		// combined traffic.
		for g, rep := range in.groupRep {
			units := gu[g]
			if units <= 0 {
				continue
			}
			src := in.Threads[rep].Node
			for n, share := range in.row(int(rep), nn) {
				if share <= 0 {
					continue
				}
				cnt := units * share
				r.load.AddAccesses(src, numa.NodeID(n), cnt)
				if record {
					il.AddAccesses(src, numa.NodeID(n), cnt)
				}
			}
		}
		// Temporary remote burst against a private region: traffic that
		// misleads Carrefour (§3.5.2).
		if in.burstLeft > 0 && in.burstRegion != nil {
			burst := 0.3 * totalMisses
			for n, share := range in.burstRegion.Dist() {
				if share > 0 {
					r.load.AddAccesses(in.burstNode, numa.NodeID(n), burst*share)
					if record {
						il.AddAccesses(in.burstNode, numa.NodeID(n), burst*share)
					}
				}
			}
			if record {
				in.burstLeft--
			}
		}
		// Page-migration copy traffic from the previous Carrefour tick,
		// charged in sorted key order: different pairs share interconnect
		// links, and float accumulation must not depend on map iteration
		// order for runs to be bit-for-bit reproducible.
		if len(in.pendingMoveBytes) > 0 {
			pairs := r.movePairs[:0] //xnuma:scratch
			for pair := range in.pendingMoveBytes {
				pairs = append(pairs, pair)
			}
			r.movePairs = pairs
			sortMovePairs(pairs)
			for _, pair := range pairs {
				bytes := in.pendingMoveBytes[pair]
				r.load.AddDMA(pair[0], pair[1], bytes)
				if record {
					il.AddDMA(pair[0], pair[1], bytes)
					delete(in.pendingMoveBytes, pair)
				}
			}
		}
	}
}

// ioFactor charges the instance's precomputed per-epoch DMA traffic
// and returns the progress multiplier. The stream's delivery is pure in
// run-constant inputs, so everything but the AddDMA emission was hoisted
// into setup (hoistRunConstants).
//
//xnuma:noalloc
func (r *runner) ioFactor(in *Instance, record bool, il *metrics.EpochLoad) float64 {
	if in.ioStream.DemandBps <= 0 {
		return 1
	}
	for _, n := range in.ioTargets {
		r.load.AddDMA(r.cfg.Disk.Node, n, in.ioPerTarget)
		if record {
			il.AddDMA(r.cfg.Disk.Node, n, in.ioPerTarget)
		}
	}
	return in.ioProgress
}

// overheadFrac is the fraction of CPU time lost to virtualized IPIs,
// allocator-churn notifications and Carrefour sampling.
//
//xnuma:noalloc
func (r *runner) overheadFrac(in *Instance) float64 {
	m := ipi.Model{Virtualized: in.Backend.Virtualized(), MCSSpin: in.MCS}
	f := m.OverheadFraction(in.Prof.CtxSwitchKps*1000, in.Prof.SyncAmplification, in.Prof.UsesPthreadSync)
	f += in.Backend.ChurnOverhead(in.Prof.ReleasesPerSec, in.NThreads)
	if in.Carrefour {
		f += 0.02 // hardware-counter sampling cost
	}
	if f > 0.97 {
		f = 0.97
	}
	return f
}

// updateLatencies recomputes each thread's average memory access latency
// from the current loads. The access cost depends only on the (src, dst)
// node pair — hop count, destination controller utilization, worst link
// on the route — so it is filled once per iteration into an nNodes²
// matrix; each thread then reduces its folded node row against its
// source node's cost row instead of re-deriving the cost per stream.
//
//xnuma:noalloc
func (r *runner) updateLatencies() {
	r.fillCycles()
	nn := r.nNodes
	for _, in := range r.insts {
		if in.done {
			continue
		}
		// One row reduction per dedup group — the access cost depends
		// only on the source node and the folded row, both group-shared.
		// The damped update stays per-thread: latency history may differ
		// between threads that only later converged onto the same row.
		gc := r.groupCyc[:len(in.groupRep)]
		for g, rep := range in.groupRep {
			costs := r.cycRow(in.Threads[rep].Node)
			var cyc float64
			for n, share := range in.row(int(rep), nn) {
				if share > 0 {
					cyc += share * costs[n]
				}
			}
			gc[g] = cyc + in.tlbCycles
		}
		for _, t := range in.Threads {
			if t.Done {
				continue
			}
			old := t.latNs
			t.latNs = 0.5*old + 0.5*(gc[in.groupOf[t.ID]]/r.freqGHz)
			if t.latNs != old {
				r.latChanged = true
			}
		}
	}
}

// fillCycles fills the per-iteration (src, dst) cost matrix from the
// shared run-constant cost model: controller and link utilizations are
// snapshotted once per iteration (one division per link instead of one
// per pair-route-link), the controller penalty computed once per
// destination node, and each pair reduces to a max over its route's
// snapshot entries plus the model's two coefficient terms. Bit-for-bit
// identical to direct AccessCycles/PathLinkUtil calls per pair
// (TestFillCyclesMatchesReference).
//
//xnuma:noalloc
func (r *runner) fillCycles() {
	r.load.FillCtrlUtil(r.ctrlUtil)
	r.load.FillLinkUtil(r.linkUtil)
	nn := r.nNodes
	for dst := 0; dst < nn; dst++ {
		r.ctrlPen[dst] = r.cost.CtrlPenalty(r.ctrlUtil[dst])
	}
	topo := r.cfg.Topo
	for src := 0; src < nn; src++ {
		row := r.cycles[src*nn : (src+1)*nn]
		for dst := 0; dst < nn; dst++ {
			var link float64
			for _, li := range topo.RouteLinks(numa.NodeID(src), numa.NodeID(dst)) {
				if u := r.linkUtil[li]; u > link {
					link = u
				}
			}
			row[dst] = r.cost.PairCycles(numa.NodeID(src), numa.NodeID(dst), r.ctrlPen[dst], link)
		}
	}
}

// cycRow returns source node src's row of the current iteration's cost
// matrix. Like Instance.row, the slice aliases runner scratch
// (r.cycles) that the next fillCycles pass overwrites: callers may
// reduce against it within the iteration, never retain it.
//
//xnuma:noalloc
func (r *runner) cycRow(src numa.NodeID) []float64 {
	nn := r.nNodes
	return r.cycles[int(src)*nn : (int(src)+1)*nn]
}

// costModels caches one AccessCostModel per topology pointer. Built
// topologies are immutable for the life of a sweep and sweep cells on
// the same scale share one *Topology, so every concurrent runner reuses
// the same model instead of rebuilding two n² coefficient tables per
// cell.
var costModels sync.Map // *numa.Topology -> *numa.AccessCostModel

// costModelFor returns the shared cost model for t, building it once.
func costModelFor(t *numa.Topology) *numa.AccessCostModel {
	if m, ok := costModels.Load(t); ok {
		return m.(*numa.AccessCostModel)
	}
	m, _ := costModels.LoadOrStore(t, numa.NewAccessCostModel(t))
	return m.(*numa.AccessCostModel)
}

// progress applies the recorded units, consumes debt, and detects
// completion. It reports whether any thread finished this epoch (a
// completion changes the next epoch's load picture, so it breaks the
// converged fast path).
//
//xnuma:noalloc
func (r *runner) progress() bool {
	completed := false
	epochNs := float64(r.cfg.Epoch)
	for i, in := range r.insts {
		if in.done {
			continue
		}
		for ti, t := range in.Threads {
			if t.Done {
				continue
			}
			budget := epochNs * t.CPUShare
			if t.DebtNs > 0 {
				pay := t.DebtNs
				if pay > budget {
					pay = budget
				}
				t.DebtNs -= pay
			}
			units := r.units[i][ti]
			if units <= 0 {
				continue
			}
			if units >= t.WorkLeft {
				frac := t.WorkLeft / units
				t.WorkLeft = 0
				t.Done = true
				t.DoneAt = r.now + sim.Time(frac*float64(r.cfg.Epoch))
				completed = true
				continue
			}
			t.WorkLeft -= units
		}
		if in.AllDone() {
			in.done = true
			var last sim.Time
			for _, t := range in.Threads {
				if t.DoneAt > last {
					last = t.DoneAt
				}
			}
			in.Completion = last
		}
	}
	return completed
}

// carrefourTick runs one decision interval of the dynamic policy for
// instance i, charges its costs and schedules its copy traffic.
//
//xnuma:noalloc
func (r *runner) carrefourTick(i int, in *Instance) {
	// Maybe start a misleading burst (§3.5.2).
	if in.burstLeft <= 0 && in.Prof.Burstiness > 0 && len(in.priv) > 0 {
		if r.rand.Float64() < in.Prof.Burstiness {
			in.burstRegion = in.priv[r.rand.Intn(len(in.priv))]
			owner := in.burstRegion.Owner
			for {
				n := numa.NodeID(r.rand.Intn(r.cfg.Topo.NumNodes()))
				if n != in.Threads[owner].Node {
					in.burstNode = n
					break
				}
			}
			in.burstLeft = r.cfg.CarrefourEvery + 1
		}
	}
	clear(r.moves)
	r.tickUtil = append(r.tickUtil[:0], r.ctrlUtil...)
	tick := carrefour.Tick{
		CtrlUtil:    r.tickUtil,
		MaxLinkUtil: r.load.MaxLinkUtil(),
		Samples:     r.samples(in),
		Rand:        r.rand,
	}
	res := r.ctrls[i].Step(tick)
	if res.Migrated == 0 {
		return
	}
	// Each migration copies one page across the interconnect; charge the
	// bytes to the next epoch and the CPU cost as debt spread across the
	// instance's threads. The byte counts are whole multiples of 4096,
	// exact in float64, so adding a pair's pages at once is bit-identical
	// to adding them one by one.
	for k, pages := range r.moves {
		if pages > 0 {
			pair := [2]numa.NodeID{numa.NodeID(k / r.nNodes), numa.NodeID(k % r.nNodes)}
			in.pendingMoveBytes[pair] += float64(pages) * 4096
		}
	}
	costNs := float64(res.Migrated) * 6000 / float64(in.NThreads)
	for _, t := range in.Threads {
		if !t.Done {
			t.DebtNs += costNs
		}
	}
}

// samples builds the Carrefour view of the instance's regions from the
// epoch's stream table. The emitted order (hot, master, dist slices,
// private slices) is part of the deterministic contract: Carrefour's
// hotness sort is stable, so ties keep this order. Everything the view
// needs — the sample slice, the pageSet adapters, the accessor rows —
// lives in runner scratch arenas, so a tick allocates nothing once the
// arenas are warm; the view stays valid until the next tick rebuilds it.
//
//xnuma:noalloc
func (r *runner) samples(in *Instance) []carrefour.Sample {
	tbl := &in.streamTab
	nNodes := r.cfg.Topo.NumNodes()
	// Accessor distribution of shared regions: the running threads.
	if cap(r.shared) < nNodes {
		r.shared = make([]float64, nNodes)
	}
	shared := r.shared[:nNodes]
	for n := range shared {
		shared[n] = 0
	}
	running := 0
	for _, t := range in.Threads {
		if !t.Done {
			shared[t.Node]++
			running++
		}
	}
	if running > 0 {
		for n := range shared {
			shared[n] /= float64(running)
		}
	}

	dists := tbl.find(streamDistOwn).perThread
	privs := tbl.find(streamPrivate).perThread
	nSamples := 2 + len(dists) + len(privs)
	if cap(r.pageSets) < nSamples {
		r.pageSets = make([]pageSet, nSamples)
	}
	if cap(r.accArena) < (nSamples-2)*nNodes {
		r.accArena = make([]float64, (nSamples-2)*nNodes)
	}
	if cap(r.sampBuf) < nSamples {
		r.sampBuf = make([]carrefour.Sample, 0, nSamples)
	}
	sets := r.pageSets[:nSamples]
	arena := r.accArena[:(nSamples-2)*nNodes]
	out := r.sampBuf[:0] //xnuma:scratch

	out = append(out,
		r.mkSample(&sets[0], in, tbl.find(streamHot).reg, tbl.wHot, shared, true),
		r.mkSample(&sets[1], in, tbl.find(streamMaster).reg, tbl.wMaster, shared, false),
	)
	k := 2
	// One sample per dist slice; its accessors blend the owner with the
	// cross-slice traffic of everyone else. (The dist-cross stream is
	// not a separate page set: it is this blend.)
	for _, reg := range dists {
		acc := arena[(k-2)*nNodes : (k-1)*nNodes]
		owner := in.Threads[reg.Owner].Node
		for n := range acc {
			acc[n] = tbl.cross * shared[n]
		}
		acc[owner] += 1 - tbl.cross
		out = append(out, r.mkSample(&sets[k], in, reg, tbl.wDist/float64(in.NThreads), acc, false))
		k++
	}
	for _, reg := range privs {
		acc := arena[(k-2)*nNodes : (k-1)*nNodes]
		for n := range acc {
			acc[n] = 0
		}
		share := tbl.wPriv / float64(in.NThreads)
		if in.burstLeft > 0 && reg == in.burstRegion {
			// The sampler currently sees mostly the burst's remote
			// accesses against this region.
			acc[in.burstNode] = 1
			share += 0.3
		} else {
			acc[in.Threads[reg.Owner].Node] = 1
		}
		out = append(out, r.mkSample(&sets[k], in, reg, share, acc, false))
		k++
	}
	r.sampBuf = out
	return out
}

// mkSample initializes one scratch pageSet adapter and wraps it in a
// sampler Sample.
//
//xnuma:noalloc
func (r *runner) mkSample(set *pageSet, in *Instance, reg *Region, share float64, accessors []float64, hot bool) carrefour.Sample {
	set.r, set.b, set.moves, set.nNodes = reg, in.Backend, r.moves, r.nNodes
	return carrefour.Sample{
		Set:         set,
		AccessShare: share,
		Accessors:   accessors,
		Hot:         hot,
		ReadOnly:    hot && in.Prof.ReadFrac >= 0.7,
	}
}

// sortMovePairs orders (src, dst) node pairs lexicographically with an
// insertion sort: the pair count is at most nNodes², and sort.Slice
// would allocate on the hot path (a closure plus boxing the slice into
// its interface parameter).
//
//xnuma:noalloc
func sortMovePairs(pairs [][2]numa.NodeID) {
	for i := 1; i < len(pairs); i++ {
		p := pairs[i]
		j := i - 1
		for j >= 0 && (pairs[j][0] > p[0] || (pairs[j][0] == p[0] && pairs[j][1] > p[1])) {
			pairs[j+1] = pairs[j]
			j--
		}
		pairs[j+1] = p
	}
}

// pageSet adapts a Region + Backend to carrefour.PageSet, counting each
// move for traffic accounting.
type pageSet struct {
	r *Region
	b Backend
	// moves is the runner's per-tick (from, to) count matrix, nNodes
	// wide.
	moves  []int
	nNodes int
}

func (s *pageSet) Len() int                 { return s.r.Len() }
func (s *pageSet) NodeOf(i int) numa.NodeID { return s.r.NodeOf(i) }

// Replicate implements carrefour.Replicator: every node gets a copy of
// the set, so subsequent accesses are local. Idempotent.
func (s *pageSet) Replicate() bool { return s.r.Replicate() }
func (s *pageSet) Migrate(i int, to numa.NodeID) bool {
	from := s.r.NodeOf(i)
	if !s.b.Migrate(s.r, i, to) {
		return false
	}
	s.moves[int(from)*s.nNodes+int(to)]++
	return true
}

func (r *runner) results() ([]Result, error) {
	out := make([]Result, 0, len(r.insts))
	for i, in := range r.insts {
		st := r.stats[i]
		out = append(out, Result{
			App:              in.Prof.Name,
			Backend:          in.Backend.Name(),
			Completion:       in.Completion,
			TimedOut:         in.Completion >= r.cfg.MaxTime,
			InitTime:         r.initTimes[i],
			Imbalance:        st.Imbalance(),
			InterconnectLoad: st.InterconnectLoad(),
			Locality:         st.LocalityRatio(),
			Migrated:         uint64(r.ctrls[i].Interleaved + r.ctrls[i].LocalityMoved),
			Stats:            st,
		})
	}
	return out, nil
}
