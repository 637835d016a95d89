package costmodel

import (
	"fmt"
	"math"

	"repro/internal/hardware"
	"repro/internal/stats"
)

// probeInterval returns the probe interval [lo, hi] ⊆ [0, 1] around the
// variable's distribution: [mu-3sigma, mu+3sigma] clipped to the unit
// interval (Pr(X in I) ~ 0.997), widened to a minimum span so a fitted
// grid's normal equations stay well-posed even for near-deterministic
// estimates.
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

// FitNode returns the five per-unit cost functions of one operator, each
// of the kind kindFor assigns. A constant (C1) is Counts at the estimate;
// a count that is already the polynomial of its kind keeps the exact
// coefficients kindFor reads off; only Sort's N log N and an index scan
// whose probe interval crosses the clamp are fitted, on the probe grid
// (fitGrid). vars is indexed by node ID.
func FitNode(m *NodeModel, vars []stats.Normal) ([hardware.NumUnits]Func, error) {
	var funcs [hardware.NumUnits]Func
	var xa, xb stats.Normal
	okA, okB := m.VarA >= 0, m.VarB >= 0
	if okA {
		xa = vars[m.VarA]
	}
	if okB {
		xb = vars[m.VarB]
	}
	// An unused variable is the zero Normal: the counts at X = 0.
	counts := m.Counts(xa.Mu, xb.Mu)
	for ui := 0; ui < hardware.NumUnits; ui++ {
		kind, b, exact := m.kindFor(hardware.Unit(ui), xa)
		switch {
		case kind == c1:
			funcs[ui] = constant(counts.Get(ui))
			continue
		case kind.binary() && !(okA && okB):
			return funcs, fmt.Errorf("costmodel: node %d kind %v needs two variables", m.Node.ID, kind)
		case !okA:
			return funcs, fmt.Errorf("costmodel: node %d kind %v needs a variable", m.Node.ID, kind)
		}
		if !exact {
			b = fitGrid(m, ui, kind, xa)
		}
		funcs[ui] = Func{Kind: kind, B: b, VarA: m.VarA, VarB: m.VarB}
	}
	return funcs, nil
}

// gridW is the number of subintervals W of the probe grid over the
// 3-sigma interval (Section 4.2): the W+1 points at which a count that is
// not a polynomial of its kind is sampled and fitted.
const gridW = 8

// fitGrid fits unit ui's count to kind — C2 (X, 1) or C4 (X², X, 1) — at
// the W+1 points of x's probe grid. The variable is scaled by the
// interval maximum while fitting, which keeps the normal equations
// well-conditioned and preserves the sign constraints.
func fitGrid(m *NodeModel, ui int, kind FuncKind, x stats.Normal) (out [4]float64) {
	lo, hi := probeInterval(x)
	scale := hi
	if scale <= 0 {
		scale = 1
	}
	var rows [gridW + 1][maxCoef]float64
	var y [gridW + 1]float64
	for i := range rows {
		xi := lo + (hi-lo)*float64(i)/gridW
		v := xi / scale
		if kind == c4 {
			rows[i] = [maxCoef]float64{v * v, v, 1}
		} else {
			rows[i] = [maxCoef]float64{v, 1}
		}
		y[i] = m.Counts(xi, 0).Get(ui)
	}
	n := kind.numCoef()
	b := nnls(rows[:], y[:], n)
	// Undo the variable scaling.
	if kind == c4 {
		b[0] /= scale * scale
		b[1] /= scale
	} else {
		b[0] /= scale
	}
	copy(out[:n], b[:n])
	cleanCoefs(out[:n])
	return out
}

// cleanCoefs zeroes numerical dust of a fit so downstream variance terms
// do not accumulate noise from coefficients that should be exactly zero.
// It compares unscaled coefficients of different powers of X, so it also
// drops Sort's small negative intercept; keeping that intercept halves
// the C4 fit error against Counts yet worsens the measured end-to-end
// error, so the fitted path keeps the cleaning.
func cleanCoefs(b []float64) {
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
}
