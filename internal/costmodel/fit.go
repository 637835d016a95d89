package costmodel

import (
	"fmt"
	"math"

	"repro/internal/hardware"
	"repro/internal/solve"
	"repro/internal/stats"
)

// DefaultGridW is the number of subintervals W used to probe the cost
// model over the 3-sigma interval (Section 4.2); W+1 boundary points per
// dimension.
const DefaultGridW = 8

// probeInterval returns the probe interval [lo, hi] ⊆ [0, 1] around the
// variable's distribution: [mu-3sigma, mu+3sigma] clipped to the unit
// interval (Pr(X in I) ~ 0.997), widened to a minimum span so the design
// matrix stays full-rank even for near-deterministic estimates.
func probeInterval(x stats.Normal) (lo, hi float64) {
	half := 3 * x.Sigma
	if min := 0.05*x.Mu + 1e-6; half < min {
		half = min
	}
	lo, hi = x.Mu-half, x.Mu+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	if hi <= lo {
		hi = lo + 1e-9
	}
	return lo, hi
}

func gridPoints(lo, hi float64, w int) []float64 {
	pts := make([]float64, w+1)
	for i := 0; i <= w; i++ {
		pts[i] = lo + (hi-lo)*float64(i)/float64(w)
	}
	return pts
}

// FitNode fits the five per-unit cost functions of one operator by
// probing its analytic cost model on the grid and solving the
// non-negative least-squares program of Section 4.2. Variables are
// scaled by their interval maximum before fitting; the scaling preserves
// the sign constraints and keeps the normal equations well-conditioned.
// vars is indexed by node ID.
func FitNode(m *NodeModel, vars []stats.Normal, gridW int) ([hardware.NumUnits]*Func, error) {
	if gridW < 2 {
		gridW = DefaultGridW
	}
	var funcs [hardware.NumUnits]*Func

	var xa, xb stats.Normal
	okA, okB := m.VarA >= 0, m.VarB >= 0
	if okA {
		xa = vars[m.VarA]
	}
	if okB {
		xb = vars[m.VarB]
	}

	for ui := 0; ui < hardware.NumUnits; ui++ {
		u := hardware.Unit(ui)
		kind := m.KindFor(u)
		switch {
		case kind == C1:
			// An unused variable is the zero Normal: the count at X = 0.
			funcs[ui] = Constant(m.Counts(xa.Mu, xb.Mu).Get(ui))
		case !kind.Binary():
			if !okA {
				return funcs, fmt.Errorf("costmodel: node %d kind %v needs a variable", m.Node.ID, kind)
			}
			f, err := fitUnary(m, ui, kind, xa, gridW)
			if err != nil {
				return funcs, err
			}
			funcs[ui] = f
		default:
			if !okA || !okB {
				return funcs, fmt.Errorf("costmodel: node %d kind %v needs two variables", m.Node.ID, kind)
			}
			f, err := fitBinary(m, ui, kind, xa, xb, gridW)
			if err != nil {
				return funcs, err
			}
			funcs[ui] = f
		}
	}
	return funcs, nil
}

func fitUnary(m *NodeModel, unit int, kind FuncKind, xa stats.Normal, w int) (*Func, error) {
	lo, hi := probeInterval(xa)
	pts := gridPoints(lo, hi, w)
	scale := hi
	if scale <= 0 {
		scale = 1
	}
	ncoef := kind.NumCoef()
	a := solve.NewMatrix(len(pts), ncoef)
	y := make([]float64, len(pts))
	for i, x := range pts {
		v := x / scale
		switch kind {
		case C2, C3:
			a.Set(i, 0, v)
			a.Set(i, 1, 1)
		case C4:
			a.Set(i, 0, v*v)
			a.Set(i, 1, v)
			a.Set(i, 2, 1)
		default:
			return nil, fmt.Errorf("costmodel: fitUnary with %v", kind)
		}
		y[i] = m.Counts(x, 0).Get(unit)
	}
	// The paper constrains the leading coefficients to be non-negative;
	// the intercept is free.
	mask := make([]bool, ncoef)
	for i := 0; i < ncoef-1; i++ {
		mask[i] = true
	}
	b, err := solve.NNLS(a, y, mask)
	if err != nil {
		return nil, err
	}
	// Undo the variable scaling.
	switch kind {
	case C2, C3:
		b[0] /= scale
	case C4:
		b[0] /= scale * scale
		b[1] /= scale
	}
	return &Func{Kind: kind, B: cleanCoefs(b), VarA: m.VarA, VarB: -1}, nil
}

func fitBinary(m *NodeModel, unit int, kind FuncKind, xa, xb stats.Normal, w int) (*Func, error) {
	loA, hiA := probeInterval(xa)
	loB, hiB := probeInterval(xb)
	ptsA := gridPoints(loA, hiA, w)
	ptsB := gridPoints(loB, hiB, w)
	sa, sb := hiA, hiB
	if sa <= 0 {
		sa = 1
	}
	if sb <= 0 {
		sb = 1
	}
	ncoef := kind.NumCoef()
	rows := len(ptsA) * len(ptsB)
	a := solve.NewMatrix(rows, ncoef)
	y := make([]float64, rows)
	r := 0
	for _, pa := range ptsA {
		for _, pb := range ptsB {
			va, vb := pa/sa, pb/sb
			switch kind {
			case C5:
				a.Set(r, 0, va)
				a.Set(r, 1, vb)
				a.Set(r, 2, 1)
			case C6:
				a.Set(r, 0, va*vb)
				a.Set(r, 1, va)
				a.Set(r, 2, vb)
				a.Set(r, 3, 1)
			default:
				return nil, fmt.Errorf("costmodel: fitBinary with %v", kind)
			}
			y[r] = m.Counts(pa, pb).Get(unit)
			r++
		}
	}
	mask := make([]bool, ncoef)
	for i := 0; i < ncoef-1; i++ {
		mask[i] = true
	}
	b, err := solve.NNLS(a, y, mask)
	if err != nil {
		return nil, err
	}
	switch kind {
	case C5:
		b[0] /= sa
		b[1] /= sb
	case C6:
		b[0] /= sa * sb
		b[1] /= sa
		b[2] /= sb
	}
	return &Func{Kind: kind, B: cleanCoefs(b), VarA: m.VarA, VarB: m.VarB}, nil
}

// cleanCoefs zeroes numerical dust so downstream variance terms do not
// accumulate noise from coefficients that should be exactly zero.
func cleanCoefs(b []float64) []float64 {
	var scale float64
	for _, v := range b {
		scale = math.Max(scale, math.Abs(v))
	}
	tol := 1e-9 * scale
	for i, v := range b {
		if math.Abs(v) < tol {
			b[i] = 0
		}
	}
	return b
}
