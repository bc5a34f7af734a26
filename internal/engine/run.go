package engine

import (
	"fmt"
	"slices"

	"repro/internal/carrefour"
	"repro/internal/iosim"
	"repro/internal/ipi"
	"repro/internal/metrics"
	"repro/internal/numa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Facts of the modelled machine and its simulation, the same in every
// run.
const (
	// Epoch is the simulation quantum.
	Epoch = 5 * sim.Millisecond
	// CarrefourEvery is Carrefour's decision interval in epochs.
	CarrefourEvery = 20
	// CtrlBWBps is the per-node memory controller bandwidth (13 GiB/s on
	// AMD48).
	CtrlBWBps = 13 * (1 << 30)
	// costMigratePage is the CPU time of migrating one page, on either
	// platform: native Linux's migrate_pages, or Xen's copy and remap
	// through the internal interface (§4.1). Both write-protect the
	// page, copy its 4 KiB and remap it with a TLB shootdown; the
	// interconnect traffic of the copy is charged separately.
	costMigratePage = 6 * sim.Microsecond
)

// Disk is the machine's disk.
var Disk = iosim.DefaultDisk()

// Config parameterizes a run.
type Config struct {
	Topo *numa.Topology
	Seed uint64
	// MaxTime aborts runaway runs.
	MaxTime sim.Time
	// Scale divides application footprints (the machine must be built
	// with banks divided by the same factor).
	Scale int
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

// Runner executes runs. Its zero value is ready to use. A Runner keeps
// the scratch a run builds — the epoch loads, the Carrefour
// controllers, the per-thread and per-node buffers and the Carrefour
// sample arenas — and resets each in place at the start of its next
// run, so a run on a warm Runner is bit-for-bit that of a zero one
// (TestRunnerReuseMatchesFresh) and allocates little beyond what its
// caller keeps: the results and their statistics. A Runner runs one run
// at a time; the warm pool holds one per machine.
type Runner struct {
	cfg   Config
	insts []*Instance
	rand  sim.Rand

	load      *metrics.EpochLoad   // machine-wide, for contention
	instLoads []*metrics.EpochLoad // per instance, for its statistics
	// loadTopo is the topology the loads and the cost model were built
	// for; a run on another rebuilds them.
	loadTopo  *numa.Topology
	stats     []*metrics.RunStats
	ctrls     []*carrefour.Controller
	initTimes []sim.Time
	ctrlUtil  []float64
	now       sim.Time
	// units[i][t] is thread t of instance i's work units this epoch,
	// recorded during the final fill.
	units [][]float64

	// Run-constant node geometry, hoisted out of the fixed-point loop:
	// nNodes is the node count and cost the pair cost model of cfg.Topo
	// (hop counts, base cycles and contention coefficients), which the
	// runner builds once per topology, with the loads, so a warm
	// machine's runner builds it once; freqGHz mirrors the latency
	// model's frequency so the hot loop converts cycles to nanoseconds
	// without copying the model.
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
	cycles     []float64 // per-(src,dst) access cost, filled each iteration
	linkUtil   []float64 // per-link utilization snapshot, one per iteration
	ctrlPen    []float64 // per-destination controller penalty, one per iteration
	groupUnits []float64 // per-dedup-group work units, summed each fill
	groupCyc   []float64 // per-dedup-group access cycles, one per iteration

	// Carrefour-tick scratch: the tick rebuilds the sampler view from
	// the regions every interval, so the backing stores are reused.
	shared   []float64          // running-thread node distribution
	accArena []float64          // per-sample accessor rows, carved per tick
	pageSets []pageSet          // sample adapter arena
	sampBuf  []carrefour.Sample // sampler view handed to Controller.Step
}

// Run executes the instances to completion and returns one result each.
// All instances share the machine: their memory traffic contends on the
// same controllers and links.
func (r *Runner) Run(cfg Config, insts ...*Instance) ([]Result, error) {
	if cfg.Scale <= 0 || len(insts) == 0 {
		return nil, fmt.Errorf("engine: invalid config or no instances")
	}
	if err := r.setup(cfg, insts...); err != nil {
		return nil, err
	}
	r.loop()
	return r.results()
}

// setup resets the runner for a run of insts under cfg: the run state
// restarts from zero and the RNG from cfg.Seed, every scratch buffer is
// resized and zeroed in place, and each instance is rebuilt and
// materialized.
func (r *Runner) setup(cfg Config, insts ...*Instance) error {
	r.cfg = cfg
	r.insts = append(r.insts[:0], insts...)
	r.rand = *sim.NewRand(cfg.Seed)
	r.now, r.converged, r.latChanged, r.convergedEpochs = 0, false, false, 0

	epochSec := float64(Epoch) / 1e9
	n := cfg.Topo.NumNodes()
	if cfg.Topo != r.loadTopo {
		r.loadTopo = cfg.Topo
		r.load = nil
		clear(r.instLoads[:cap(r.instLoads)])
		r.cost = numa.NewAccessCostModel(cfg.Topo)
	}
	r.load = resetLoad(r.load, cfg.Topo, epochSec)
	r.instLoads = resized(r.instLoads, len(insts))
	r.stats = r.stats[:0]
	r.ctrls = resized(r.ctrls, len(insts))
	r.units = resized(r.units, len(insts))
	r.nNodes = n
	r.ctrlUtil = zeroed(r.ctrlUtil, n)
	r.cycles = zeroed(r.cycles, n*n)
	r.linkUtil = zeroed(r.linkUtil, len(cfg.Topo.Links))
	r.ctrlPen = zeroed(r.ctrlPen, n)
	r.freqGHz = cfg.Topo.Latency.FreqGHz
	maxThreads := 0
	for i, in := range insts {
		if err := in.Prof.Validate(); err != nil {
			return err
		}
		if in.NThreads <= 0 {
			return fmt.Errorf("engine: instance %s has no threads", in.Prof.Name)
		}
		maxThreads = max(maxThreads, in.NThreads)
		r.instLoads[i] = resetLoad(r.instLoads[i], cfg.Topo, epochSec)
		r.stats = append(r.stats, metrics.NewRunStats(cfg.Topo))
		if r.ctrls[i] == nil {
			r.ctrls[i] = new(carrefour.Controller)
		}
		r.ctrls[i].Reset(in.CarrefourMode)
		r.units[i] = zeroed(r.units[i], in.NThreads)
		if err := r.buildInstance(in); err != nil {
			return err
		}
		r.hoistRunConstants(in, epochSec)
	}
	r.groupUnits = zeroed(r.groupUnits, maxThreads)
	r.groupCyc = zeroed(r.groupCyc, maxThreads)
	r.initTimes = zeroed(r.initTimes, len(insts))
	for i, in := range insts {
		t, err := r.materialize(in)
		if err != nil {
			return fmt.Errorf("engine: materializing %s: %w", in.Prof.Name, err)
		}
		r.initTimes[i] = t
	}
	return nil
}

// resetLoad returns l zeroed, or a new load for topo when l is nil.
func resetLoad(l *metrics.EpochLoad, topo *numa.Topology, epochSec float64) *metrics.EpochLoad {
	if l == nil {
		return metrics.NewEpochLoad(topo, epochSec, CtrlBWBps)
	}
	l.Reset()
	return l
}

// zeroed returns s with length n and every element zero, reusing its
// storage when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// hoistRunConstants precomputes the per-instance values the fixed-point
// iterations used to re-derive every pass: they depend only on the
// profile, the backend and the run configuration, none of which change
// after setup. Each hoisted expression is kept verbatim so the values
// are bit-for-bit what the inline computation produced.
func (r *Runner) hoistRunConstants(in *Instance, epochSec float64) {
	in.cpuNsPerUnit = in.Prof.CPUNsPerUnit()
	in.overhead = r.overheadFrac(in)
	if in.ioStream.DemandBps > 0 {
		path, _ := in.Backend.IO()
		delivered, progress := in.ioStream.Delivered(path, Disk)
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
func (r *Runner) buildInstance(in *Instance) error {
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
	in.hot = resetRegion(in.hot, "hot", -1, nNodes)
	in.master = resetRegion(in.master, "master", -1, nNodes)
	in.dist = resized(in.dist, in.NThreads)
	in.priv = resized(in.priv, in.NThreads)
	for i := range in.dist {
		in.dist[i] = resetRegion(in.dist[i], "dist", i, nNodes)
		in.priv[i] = resetRegion(in.priv[i], "priv", i, nNodes)
	}
	in.pendingMoves, in.movesPending = zeroed(in.pendingMoves, nNodes*nNodes), false
	in.burstLeft, in.burstNode, in.burstRegion = 0, 0, nil
	in.done, in.Completion = false, 0
	in.foldSum, in.foldLive, in.foldValid = 0, 0, false
	in.ioProgress, in.ioPerTarget, in.ioTargets = 0, 0, nil
	pages := int(in.Prof.FootprintMB * (1 << 20) / float64(r.cfg.Scale) / 4096)
	if pages < 512 {
		pages = 512
	}
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
		Placement:  placement,
		BufferNode: Disk.Node,
		HomeNodes:  in.Backend.HomeNodes(),
		Penalty:    in.Prof.IOPenalty,
	}
	return nil
}

// resized returns s with length n. Elements it keeps, including those a
// previous shrink left past its length, stay; slots it never held are
// zero.
func resized[S ~[]E, E any](s S, n int) S {
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
func (r *Runner) materialize(in *Instance) (sim.Time, error) {
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
		reg.pages, reg.nodes = in.pageBuf[off:off:off+n], in.nodeBuf[off:off:off+n]
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

func (r *Runner) loop() {
	maxEpochs := int(r.cfg.MaxTime / Epoch)
	for step := 0; step < maxEpochs; step++ {
		r.now = sim.Time(step) * Epoch
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

// epoch advances the simulation by one quantum: refold each live
// instance's rows, couple rates and latencies, apply progress,
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
func (r *Runner) epoch(step int) {
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
		if in.burstLeft > 0 || in.movesPending {
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
func (r *Runner) runTicks(step int) bool {
	if step%CarrefourEvery != 0 {
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

func (r *Runner) allDone() bool {
	for _, in := range r.insts {
		if !in.done {
			return false
		}
	}
	return true
}

// fillLoads recomputes the epoch's traffic from current latency
// estimates by walking each live thread's folded node row (the streams
// collapsed by foldRows — regions never appear here). When record
// is true, per-thread work units are captured for the progress step and
// per-instance loads are filled.
//
//xnuma:noalloc
func (r *Runner) fillLoads(record bool) {
	r.load.Reset()
	epochNs := float64(Epoch)
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
			for n, share := range in.rows[int(rep)*nn : (int(rep)+1)*nn] {
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
			pages := float64(len(in.burstRegion.pages))
			for n, c := range in.burstRegion.hist {
				if c > 0 {
					cnt := burst * (c / pages)
					r.load.AddAccesses(in.burstNode, numa.NodeID(n), cnt)
					if record {
						il.AddAccesses(in.burstNode, numa.NodeID(n), cnt)
					}
				}
			}
			if record {
				in.burstLeft--
			}
		}
		// Page-migration copy traffic from the previous Carrefour tick,
		// charged in (src, dst) order: different pairs share interconnect
		// links, so the float accumulation order must be fixed for runs
		// to be bit-for-bit reproducible.
		if in.movesPending {
			for k, bytes := range in.pendingMoves {
				if bytes == 0 {
					continue
				}
				src, dst := numa.NodeID(k/nn), numa.NodeID(k%nn)
				r.load.AddDMA(src, dst, bytes)
				if record {
					il.AddDMA(src, dst, bytes)
					in.pendingMoves[k] = 0
				}
			}
			if record {
				in.movesPending = false
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
func (r *Runner) ioFactor(in *Instance, record bool, il *metrics.EpochLoad) float64 {
	if in.ioStream.DemandBps <= 0 {
		return 1
	}
	for _, n := range in.ioTargets {
		r.load.AddDMA(Disk.Node, n, in.ioPerTarget)
		if record {
			il.AddDMA(Disk.Node, n, in.ioPerTarget)
		}
	}
	return in.ioProgress
}

// overheadFrac is the fraction of CPU time lost to virtualized IPIs,
// allocator-churn notifications and Carrefour sampling.
//
//xnuma:noalloc
func (r *Runner) overheadFrac(in *Instance) float64 {
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
func (r *Runner) updateLatencies() {
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
			src := int(in.Threads[rep].Node)
			costs := r.cycles[src*nn : (src+1)*nn]
			var cyc float64
			for n, share := range in.rows[int(rep)*nn : (int(rep)+1)*nn] {
				if share > 0 {
					cyc += share * costs[n]
				}
			}
			gc[g] = cyc
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
func (r *Runner) fillCycles() {
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

// progress applies the recorded units, consumes debt, and detects
// completion. It reports whether any thread finished this epoch (a
// completion changes the next epoch's load picture, so it breaks the
// converged fast path).
//
//xnuma:noalloc
func (r *Runner) progress() bool {
	completed := false
	epochNs := float64(Epoch)
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
				t.DoneAt = r.now + sim.Time(frac*float64(Epoch))
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

// ReadsSeed reports whether an instance of profile p, with Carrefour
// on or off, reads the run's seed. The misleading burst a Carrefour
// tick may start (§3.5.2) is the only draw from the run's random
// stream, and carrefourTick draws only where ReadsSeed holds; a run
// none of whose instances reads the seed computes the same result at
// every seed.
//
//xnuma:noalloc
func ReadsSeed(p workload.Profile, carrefour bool) bool {
	return carrefour && p.Burstiness > 0
}

// carrefourTick runs one decision interval of the dynamic policy for
// instance i, charges its costs and schedules its copy traffic.
//
//xnuma:noalloc
func (r *Runner) carrefourTick(i int, in *Instance) {
	// Maybe start a misleading burst (§3.5.2).
	if in.burstLeft <= 0 && ReadsSeed(in.Prof, in.Carrefour) && len(in.priv) > 0 {
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
			in.burstLeft = CarrefourEvery + 1
		}
	}
	r.samples(in)
	tick := carrefour.Tick{
		CtrlUtil:    r.ctrlUtil,
		MaxLinkUtil: r.load.MaxLinkUtil(),
		Samples:     r.sampBuf,
	}
	migrated := r.ctrls[i].Step(tick)
	if migrated == 0 {
		return
	}
	// Each migration copies one page across the interconnect:
	// pageSet.Migrate charged its bytes to the next epoch; the CPU cost
	// is debt spread across the instance's threads.
	costNs := float64(migrated) * float64(costMigratePage) / float64(in.NThreads)
	for _, t := range in.Threads {
		if !t.Done {
			t.DebtNs += costNs
		}
	}
}

// samples rebuilds r.sampBuf, the Carrefour view of the instance's
// regions, weighted by the profile's stream weights. The emitted order
// (hot, master, dist slices, private slices) is part of the
// deterministic contract: Carrefour's hotness sort is stable, so ties
// keep this order.
// Everything the view needs — the sample slice, the pageSet adapters,
// the accessor rows — lives in runner scratch arenas, so a tick
// allocates nothing once the arenas are warm; the view stays valid
// until the next tick rebuilds it.
//
//xnuma:noalloc
func (r *Runner) samples(in *Instance) {
	wHot, wMaster, wPriv, wDist := in.weights()
	cross := in.Prof.CrossShare
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

	nSamples := 2 + len(in.dist) + len(in.priv)
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
		r.mkSample(&sets[0], in, in.hot, wHot, shared, true),
		r.mkSample(&sets[1], in, in.master, wMaster, shared, false),
	)
	k := 2
	// One sample per dist slice; its accessors blend the owner with the
	// cross-slice traffic of everyone else. (The cross-slice stream is
	// not a separate page set: it is this blend.)
	for _, reg := range in.dist {
		acc := arena[(k-2)*nNodes : (k-1)*nNodes]
		owner := in.Threads[reg.Owner].Node
		for n := range acc {
			acc[n] = cross * shared[n]
		}
		acc[owner] += 1 - cross
		out = append(out, r.mkSample(&sets[k], in, reg, wDist/float64(in.NThreads), acc, false))
		k++
	}
	for _, reg := range in.priv {
		acc := arena[(k-2)*nNodes : (k-1)*nNodes]
		for n := range acc {
			acc[n] = 0
		}
		share := wPriv / float64(in.NThreads)
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
}

// mkSample initializes one scratch pageSet adapter and wraps it in a
// sampler Sample.
//
//xnuma:noalloc
func (r *Runner) mkSample(set *pageSet, in *Instance, reg *Region, share float64, accessors []float64, hot bool) carrefour.Sample {
	set.r, set.in, set.nNodes = reg, in, r.nNodes
	return carrefour.Sample{
		Set:         set,
		AccessShare: share,
		Accessors:   accessors,
		Hot:         hot,
		ReadOnly:    hot && in.Prof.ReadFrac >= 0.7,
	}
}

// pageSet adapts a region of an instance to carrefour.PageSet, charging
// each move's copy traffic to the instance.
type pageSet struct {
	r      *Region
	in     *Instance
	nNodes int
}

func (s *pageSet) Len() int                 { return s.r.Len() }
func (s *pageSet) NodeOf(i int) numa.NodeID { return s.r.NodeOf(i) }

// Replicate implements carrefour.Replicator: every node gets a copy of
// the set, so subsequent accesses are local. Idempotent.
func (s *pageSet) Replicate() { s.r.Replicate() }
func (s *pageSet) Migrate(i int, to numa.NodeID) bool {
	from := s.r.NodeOf(i)
	if !s.in.Backend.Migrate(s.r, i, to) {
		return false
	}
	// Whole pages: the byte counts stay exact in float64.
	s.in.pendingMoves[int(from)*s.nNodes+int(to)] += 4096
	s.in.movesPending = true
	return true
}

func (r *Runner) results() ([]Result, error) {
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
