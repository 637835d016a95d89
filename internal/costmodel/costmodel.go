// Package costmodel implements the logical cost functions of Section 4:
// the six canonical function types C1–C6 (C1'–C6' when rewritten over
// selectivities) and the optimizer-side analytic cost model that maps
// selectivities to the resource counts n of Equation (1). That model is
// the engine's own count formulas (engine.ScanCounts, JoinCounts,
// UnaryCounts) at the cardinalities the selectivities imply; only the
// sequential scan's page count is its own, left unrounded. The paper fits
// the coefficients b by probing an opaque cost model; this one is owned,
// and every count but two is already the polynomial of its type, so its
// coefficients are read off in closed form. The two exceptions — Sort's
// N log N (C4) and an index scan whose 3-sigma probe interval crosses its
// clamp (C2) — are fitted on the probe grid of Section 4.2 by the paper's
// quadratic program with the leading b_i >= 0, solved exactly on
// fixed-size arrays.
package costmodel

import (
	"fmt"

	"repro/internal/stats"
)

// FuncKind enumerates the canonical cost-function types C1'–C6'.
type FuncKind int

// Cost function types (Section 4.1). The variable names follow the
// rewritten forms: X is a selectivity in [0,1].
const (
	c1 FuncKind = iota // f = b0
	c2                 // f = b0*X + b1            (X = own output selectivity)
	c3                 // f = b0*Xl + b1           (unary, input selectivity)
	c4                 // f = b0*Xl^2 + b1*Xl + b2 (nonlinear unary)
	c5                 // f = b0*Xl + b1*Xr + b2   (linear binary)
	c6                 // f = b0*Xl*Xr + b1*Xl + b2*Xr + b3
)

// String implements fmt.Stringer.
func (k FuncKind) String() string {
	names := [...]string{"C1", "C2", "C3", "C4", "C5", "C6"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("FuncKind(%d)", int(k))
}

// numCoef returns the number of coefficients of the kind.
func (k FuncKind) numCoef() int {
	switch k {
	case c1:
		return 1
	case c2, c3:
		return 2
	case c4, c5:
		return 3
	case c6:
		return 4
	default:
		panic(fmt.Sprintf("costmodel: bad kind %d", int(k)))
	}
}

// binary reports whether the kind takes two selectivity variables.
func (k FuncKind) binary() bool { return k == c5 || k == c6 }

// Func is a logical cost function: a polynomial over one or two
// selectivity random variables, identified by the plan-node IDs that own
// them (a scan or join operator's output selectivity). It is a value:
// copying it copies its coefficients.
type Func struct {
	Kind FuncKind
	// B holds the coefficients in the layout documented on FuncKind;
	// entries past Kind.numCoef() are zero.
	B [4]float64
	// VarA and VarB are the owning node IDs of Xl (or X) and Xr; -1 when
	// unused. Constant functions have both -1.
	VarA, VarB int
}

// constant returns the constant cost function f = v.
func constant(v float64) Func { return Func{Kind: c1, B: [4]float64{v}, VarA: -1, VarB: -1} }

// IsZero reports whether the function is identically zero.
func (f *Func) IsZero() bool { return f.B == [4]float64{} }

// Eval evaluates the function at a variable assignment indexed by node
// ID. x must cover every referenced VarA/VarB index.
func (f *Func) Eval(x []float64) float64 {
	switch f.Kind {
	case c1:
		return f.B[0]
	case c2, c3:
		return f.B[0]*x[f.VarA] + f.B[1]
	case c4:
		xa := x[f.VarA]
		return f.B[0]*xa*xa + f.B[1]*xa + f.B[2]
	case c5:
		return f.B[0]*x[f.VarA] + f.B[1]*x[f.VarB] + f.B[2]
	case c6:
		xa, xb := x[f.VarA], x[f.VarB]
		return f.B[0]*xa*xb + f.B[1]*xa + f.B[2]*xb + f.B[3]
	default:
		panic(fmt.Sprintf("costmodel: bad kind %d", int(f.Kind)))
	}
}

// Term is one monomial of a cost function: Coef * Π Vars[i]^Pows[i],
// with NVars in {0, 1, 2}. The covariance machinery in internal/core
// consumes this representation.
type Term struct {
	Coef  float64
	Vars  [2]int
	Pows  [2]int
	NVars int
}

// Terms expands the function into its monomials, one per coefficient in
// B's order (zero coefficients included), the constant last: it fills
// ts[:n] and returns n.
func (f *Func) Terms(ts *[4]Term) (n int) {
	lin := func(v int, c float64) Term { return Term{Coef: c, Vars: [2]int{v}, Pows: [2]int{1}, NVars: 1} }
	switch f.Kind {
	case c1:
	case c2, c3:
		ts[0], n = lin(f.VarA, f.B[0]), 1
	case c4:
		ts[0] = Term{Coef: f.B[0], Vars: [2]int{f.VarA}, Pows: [2]int{2}, NVars: 1}
		ts[1], n = lin(f.VarA, f.B[1]), 2
	case c5:
		ts[0], ts[1], n = lin(f.VarA, f.B[0]), lin(f.VarB, f.B[1]), 2
	case c6:
		ts[0] = Term{Coef: f.B[0], Vars: [2]int{f.VarA, f.VarB}, Pows: [2]int{1, 1}, NVars: 2}
		ts[1], ts[2], n = lin(f.VarA, f.B[1]), lin(f.VarB, f.B[2]), 3
	default:
		panic(fmt.Sprintf("costmodel: bad kind %d", int(f.Kind)))
	}
	ts[n] = Term{Coef: f.B[n]}
	return n + 1
}

// Mean returns E[term] under independent normal variables, vars indexed
// by node ID.
func (t Term) Mean(vars []stats.Normal) float64 {
	m := t.Coef
	for i := 0; i < t.NVars; i++ {
		m *= vars[t.Vars[i]].Moment(t.Pows[i])
	}
	return m
}

// Dist returns the mean and variance of the cost function given the
// marginal distributions of its variables. Distinct variables within one
// function are independent (Lemma 2: sibling subtrees use different
// sample tables). For C4 this reproduces Lemma 4; for C6, Lemma 8. vars
// is indexed by node ID.
func (f *Func) Dist(vars []stats.Normal) (mean, variance float64) {
	var ts [4]Term
	var ms [4]float64
	n := f.Terms(&ts)
	for i, t := range ts[:n] {
		ms[i] = t.Mean(vars)
		mean += ms[i]
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			c := ts[i].CovGiven(ts[j], vars, ms[i], ms[j])
			if i == j {
				variance += c
			} else {
				variance += 2 * c
			}
		}
	}
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// Cov computes Cov(a, b) for two monomials whose distinct variables are
// mutually independent — terms of a single operator's cost function, or
// of two operators neither of which is the other's ancestor (Lemma 3).
// E[ab] factors per variable using normal moments up to 4.
func (a Term) Cov(b Term, vars []stats.Normal) float64 {
	return a.CovGiven(b, vars, a.Mean(vars), b.Mean(vars))
}

// CovGiven is Cov with the means ma = E[a] and mb = E[b] already known:
// E[ab] − ma·mb, the same bits as Cov.
func (a Term) CovGiven(b Term, vars []stats.Normal, ma, mb float64) float64 {
	if a.NVars == 0 || b.NVars == 0 {
		return 0
	}
	// Joint power per variable, accumulated in term order — NOT via a
	// map — so the product's floating-point rounding (and hence the
	// predicted variance) is bit-identical from run to run.
	var ids, pows [4]int
	n := 0
	add := func(v, p int) {
		for i := 0; i < n; i++ {
			if ids[i] == v {
				pows[i] += p
				return
			}
		}
		ids[n], pows[n] = v, p
		n++
	}
	for i := 0; i < a.NVars; i++ {
		add(a.Vars[i], a.Pows[i])
	}
	for i := 0; i < b.NVars; i++ {
		add(b.Vars[i], b.Pows[i])
	}
	eab := a.Coef * b.Coef
	for i := 0; i < n; i++ {
		eab *= vars[ids[i]].Moment(pows[i])
	}
	return eab - ma*mb
}
