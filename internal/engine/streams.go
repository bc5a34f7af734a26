package engine

// The access-stream layer: one canonical enumeration of an instance's
// memory-access streams, consumed by everything that used to hand-roll
// it (fillLoads' traffic emission, updateLatencies' cost accumulation,
// and the Carrefour sampler's region view). Adding a new stream kind
// means adding one table entry here, not editing three loops in
// lockstep.
//
// Because placement only mutates between epochs, the table is also
// folded once per epoch into per-thread node rows (foldRows): the
// damped fixed-point iterations then walk nodes only, never streams.

// streamKind identifies one of the instance's access streams.
type streamKind int

const (
	// streamHot is the hottest-page stream: every thread hits the hot
	// region's single hottest page (or a local replica once replicated).
	streamHot streamKind = iota
	// streamMaster is every thread's traffic against the master-touched
	// region.
	streamMaster
	// streamPrivate is each thread's traffic against its own private
	// region.
	streamPrivate
	// streamDistOwn is each thread's traffic against its own slice of
	// the distributed-shared region.
	streamDistOwn
	// streamDistCross is the cross-slice fraction of distributed-shared
	// traffic, spread over the combined placement of all slices.
	streamDistCross
)

// stream is one access stream for the current epoch: who issues it, at
// what per-thread weight, and against which placement distribution.
type stream struct {
	kind streamKind
	// weight is the fraction of each issuing thread's misses carried by
	// this stream.
	weight float64
	// reg backs a shared stream (hot, master); nil for per-thread and
	// combined streams.
	reg *Region
	// perThread maps thread ID to the region that thread issues against
	// (private and dist-own streams); nil for shared streams.
	perThread []*Region
	// dist is the shared placement distribution (nil for per-thread
	// streams, which resolve through perThread at emission time).
	dist []float64
	// local marks a replicated stream: every access lands on the
	// issuing thread's own node.
	local bool
}

// distFor resolves the placement distribution stream s presents to
// thread t.
//
//xnuma:noalloc
func (s *stream) distFor(t *Thread) []float64 {
	if s.dist != nil {
		return s.dist
	}
	return s.perThread[t.ID].AccessDist()
}

// streamTable is an instance's per-epoch stream enumeration, in
// per-thread emission order. The raw profile weights ride along for
// consumers (the Carrefour sampler) that need per-region shares rather
// than per-thread emission weights.
type streamTable struct {
	streams []stream

	wHot, wMaster, wPriv, wDist float64
	cross                       float64
}

// find returns the table's stream of the given kind, or nil when the
// table has none.
//
//xnuma:noalloc
func (t *streamTable) find(k streamKind) *stream {
	for i := range t.streams {
		if t.streams[i].kind == k {
			return &t.streams[i]
		}
	}
	return nil
}

// refreshStreams rebuilds the instance's stream table for the coming
// epoch. Placement only mutates between epochs (materialization before
// the loop, Carrefour ticks after the fixed-point iterations), so the
// table and the distribution slices it aliases stay valid for the whole
// epoch. The streams slice and the combined-distribution scratch are
// reused: steady-state epochs allocate nothing.
//
// When no region mutated (every gen counter unchanged) and no thread
// finished since the last fold, the rebuild is skipped outright: every
// fold input — cached distributions, thread homes, profile weights —
// is value-stable, so the table and rows already hold exactly what the
// rebuild would recompute. Steady-state epochs between Carrefour ticks
// hit this path.
//
//xnuma:noalloc
func (in *Instance) refreshStreams() {
	sum := in.hot.gen + in.master.gen
	for _, reg := range in.dist {
		sum += reg.gen
	}
	for _, reg := range in.priv {
		sum += reg.gen
	}
	live := 0
	for _, th := range in.Threads {
		if !th.Done {
			live++
		}
	}
	if in.foldValid && sum == in.foldSum && live == in.foldLive {
		return
	}
	in.foldSum, in.foldLive, in.foldValid = sum, live, true
	t := &in.streamTab
	t.wHot, t.wMaster, t.wPriv, t.wDist = in.weights()
	t.cross = in.Prof.CrossShare
	in.distAll = combinedDistInto(in.distAll, in.dist)
	t.streams = append(t.streams[:0],
		stream{kind: streamHot, weight: t.wHot, reg: in.hot,
			dist: in.hot.HotDist(), local: in.hot.Replicated}, //xnuma:aliasretain-ok table is rebuilt here every epoch, before placement mutates
		stream{kind: streamMaster, weight: t.wMaster, reg: in.master,
			dist: in.master.AccessDist()}, //xnuma:aliasretain-ok table is rebuilt here every epoch, before placement mutates
		stream{kind: streamPrivate, weight: t.wPriv, perThread: in.priv},
		stream{kind: streamDistOwn, weight: t.wDist * (1 - t.cross), perThread: in.dist},
		stream{kind: streamDistCross, weight: t.wDist * t.cross, dist: in.distAll},
	)
	in.foldRows()
}

// foldRows collapses the stream table into one node row per thread:
// row[n] is the fraction of the thread's misses that land on node n this
// epoch (Σ_s weight_s · share_s[n], with replicated streams folding into
// the thread's own node). The fixed-point iterations consume only these
// rows — the stream dimension is gone from the hot loop. The backing
// buffer is reused across epochs, so steady state allocates nothing.
//
//xnuma:noalloc
func (in *Instance) foldRows() {
	nn := in.hot.nNodes
	if cap(in.rows) < in.NThreads*nn {
		in.rows = make([]float64, in.NThreads*nn)
	}
	in.rows = in.rows[:in.NThreads*nn]
	t := &in.streamTab
	for _, th := range in.Threads {
		if th.Done {
			continue
		}
		row := in.rows[th.ID*nn : (th.ID+1)*nn]
		for n := range row {
			row[n] = 0
		}
		for si := range t.streams {
			s := &t.streams[si]
			if s.weight <= 0 {
				continue
			}
			if s.local {
				row[th.Node] += s.weight
				continue
			}
			for n, share := range s.distFor(th) {
				if share > 0 {
					row[n] += s.weight * share
				}
			}
		}
	}
	in.groupRows()
}

// groupRows collapses live threads with bitwise-identical folded rows
// on the same node into emission groups. Identical rows contribute
// identical per-access node shares, so the fixed-point iterations can
// charge one summed row per group and derive one access cost per group
// instead of per thread. The grouping compares this epoch's rows only
// — thread state that differs within a group (CPU debt, damped
// latency history) stays per-thread; only the row-shaped work is
// shared.
//
//xnuma:noalloc
func (in *Instance) groupRows() {
	nn := in.hot.nNodes
	if cap(in.groupOf) < in.NThreads {
		in.groupOf = make([]int32, in.NThreads)
		in.groupRep = make([]int32, 0, in.NThreads)
	}
	in.groupOf = in.groupOf[:in.NThreads]
	reps := in.groupRep[:0] //xnuma:scratch capacity NThreads, pre-sized above; never grows after warmup
	for _, th := range in.Threads {
		if th.Done {
			continue
		}
		row := in.rows[th.ID*nn : (th.ID+1)*nn]
		g := int32(-1)
		for gi, rep := range reps {
			if in.Threads[rep].Node != th.Node {
				continue
			}
			if rowsEqual(row, in.rows[int(rep)*nn:(int(rep)+1)*nn]) {
				g = int32(gi)
				break
			}
		}
		if g < 0 {
			g = int32(len(reps))
			reps = append(reps, int32(th.ID))
		}
		in.groupOf[th.ID] = g
	}
	in.groupRep = reps
}

// rowsEqual reports whether two folded node rows are bitwise identical
// (folded shares are never NaN, so == is bit comparison).
//
//xnuma:noalloc
func rowsEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// row returns thread id's folded node row for the current epoch.
//
//xnuma:noalloc
func (in *Instance) row(id, nNodes int) []float64 {
	return in.rows[id*nNodes : (id+1)*nNodes]
}

// combinedDist averages the placement distributions of a region group,
// weighting by page count: a thread crossing slice boundaries is more
// likely to hit a larger slice.
func combinedDist(regs []*Region) []float64 {
	return combinedDistInto(nil, regs)
}

// combinedDistInto is combinedDist writing into dst (grown if needed)
// so per-epoch callers can reuse one scratch buffer.
//
//xnuma:noalloc
func combinedDistInto(dst []float64, regs []*Region) []float64 {
	if len(regs) == 0 {
		return nil
	}
	if cap(dst) < regs[0].nNodes {
		dst = make([]float64, regs[0].nNodes)
	} else {
		dst = dst[:regs[0].nNodes]
		for n := range dst {
			dst[n] = 0
		}
	}
	var totalPages float64
	for _, r := range regs {
		pages := float64(len(r.Pages))
		if pages == 0 {
			continue
		}
		totalPages += pages
		for n, share := range r.AccessDist() {
			dst[n] += share * pages
		}
	}
	if totalPages > 0 {
		for n := range dst {
			dst[n] /= totalPages
		}
	}
	return dst
}
