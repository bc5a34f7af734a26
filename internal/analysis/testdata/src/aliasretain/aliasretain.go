// Package aliasretain is golden-test input for the aliasretain
// analyzer. It declares lookalikes of the engine accessor types (the
// analyzer accepts them because the package path contains "testdata").
package aliasretain

type Region struct{ dist, acc, hot []float64 }

func (r *Region) Dist() []float64       { return r.dist }
func (r *Region) AccessDist() []float64 { return r.acc }
func (r *Region) HotDist() []float64    { return r.hot }

type Instance struct{ rows []float64 }

func (in *Instance) row(i int) []float64 { return in.rows[i : i+1] }

type Runner struct{ cycles []float64 }

func (r *Runner) cycRow(src int) []float64 { return r.cycles[src : src+1] }

type holder struct {
	cached []float64
	all    [][]float64
}

var global []float64

func retainInField(h *holder, r *Region) {
	h.cached = r.Dist() // want `result of Region\.Dist stored in field h\.cached`
}

func retainInGlobal(r *Region) {
	global = r.AccessDist() // want `result of Region\.AccessDist stored in package-level variable global`
}

func retainInLiteral(r *Region) holder {
	return holder{
		cached: r.HotDist(), // want `result of Region\.HotDist stored in composite-literal field cached`
	}
}

func retainInElement(h *holder, in *Instance, i int) {
	h.all[i] = in.row(i) // want `result of Instance\.row stored in element of field h\.all`
}

func retainCostRow(h *holder, r *Runner) {
	h.cached = r.cycRow(0) // want `result of Runner\.cycRow stored in field h\.cached`
}

// Reading within the frame is the intended use: the view dies with the
// call.
func sum(r *Region) float64 {
	var s float64
	for _, v := range r.Dist() {
		s += v
	}
	return s
}

// Copying is always safe.
func snapshot(h *holder, r *Region) {
	h.cached = append(h.cached[:0], r.Dist()...)
}
