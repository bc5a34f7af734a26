package engine

// The fold layer: each thread issues five memory-access streams — the
// hot page, the master-touched region, its private region, its own
// slice of the distributed-shared region, and the cross-slice fraction
// of that traffic, spread over the combined placement of all slices —
// and foldRows folds them into one node row per thread, so the damped
// fixed-point iterations walk nodes only, never regions.

// refreshStreams refolds the instance's rows for the coming epoch.
// Placement only mutates between epochs (materialization before the
// loop, Carrefour ticks after the fixed-point iterations), so the rows
// stay valid for the whole epoch. The row buffer and the
// combined-distribution scratch are reused: steady-state epochs
// allocate nothing.
//
// When no region mutated (every gen counter unchanged) and no thread
// finished since the last fold, the fold is skipped outright: every
// fold input — cached distributions, thread homes, profile weights —
// is value-stable, so the rows already hold exactly what the fold
// would recompute. Steady-state epochs between Carrefour ticks hit
// this path.
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
	in.distAll = combinedDistInto(in.distAll, in.dist)
	in.foldRows()
}

// foldRows adds each live thread's five stream terms into one node row:
// row[n] is the fraction of the thread's misses that land on node n this
// epoch (Σ_s weight_s · share_s[n]). A replicated hot region lands on
// the thread's own node. The terms are added in a fixed order — hot,
// master, private, own slice, cross slice — so every row is bit-for-bit
// reproducible. The fixed-point iterations consume only these rows. The
// backing buffer is reused across epochs, so steady state allocates
// nothing.
//
//xnuma:noalloc
func (in *Instance) foldRows() {
	nn := in.hot.nNodes
	if cap(in.rows) < in.NThreads*nn {
		in.rows = make([]float64, in.NThreads*nn)
	}
	in.rows = in.rows[:in.NThreads*nn]
	wHot, wMaster, wPriv, wDist := in.weights()
	cross := in.Prof.CrossShare
	wOwn, wCross := wDist*(1-cross), wDist*cross
	hot, master := in.hot.HotDist(), in.master.AccessDist()
	for _, th := range in.Threads {
		if th.Done {
			continue
		}
		row := in.rows[th.ID*nn : (th.ID+1)*nn]
		for n := range row {
			row[n] = 0
		}
		if in.hot.Replicated && wHot > 0 {
			row[th.Node] += wHot
		} else {
			addShares(row, wHot, hot)
		}
		addShares(row, wMaster, master)
		addShares(row, wPriv, in.priv[th.ID].AccessDist())
		addShares(row, wOwn, in.dist[th.ID].AccessDist())
		addShares(row, wCross, in.distAll)
	}
	in.groupRows()
}

// addShares adds weight · share[n] into row[n] for every node with a
// positive share; a stream of zero weight adds nothing.
//
//xnuma:noalloc
func addShares(row []float64, weight float64, dist []float64) {
	if weight <= 0 {
		return
	}
	for n, share := range dist {
		if share > 0 {
			row[n] += weight * share
		}
	}
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

// combinedDistInto averages the placement distributions of a region
// group, weighting by page count: a thread crossing slice boundaries is
// more likely to hit a larger slice. It writes into dst (grown if
// needed) so per-epoch callers can reuse one scratch buffer.
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
