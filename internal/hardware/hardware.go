// Package hardware simulates the execution environment of the paper's
// experiments: machines whose five PostgreSQL cost units c = (cs, cr,
// ct, ci, co) are true Gaussian random variables, plus a multiplicative
// model-error term standing in for the simplifications in the cost
// model function g (error source (iii) of Section 1).
//
// A machine is a Profile — a plain data value (per-unit means and
// standard deviations, one model-error sigma). The paper's two physical
// machines are the literal profiles PC1 and PC2 (ProfileByName looks
// them up by name); every other machine is drifted from one of them
// (WithDrift).
//
// The paper ran PostgreSQL 9.0.4 on physical machines; this simulator is
// the documented substitution (see DESIGN.md §3). Prediction-side code —
// calibration, sampling, fitting, propagation — is identical to what
// would run against a real DBMS; only the source of "actual" running
// times differs.
package hardware

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/stats"
)

// NumUnits is the number of cost units in the model.
const NumUnits = 5

// Unit indexes the five cost units of Table 1.
type Unit int

// The five cost units (Table 1 of the paper).
const (
	CS Unit = iota // I/O cost to sequentially access a page
	CR             // I/O cost to randomly access a page
	CT             // CPU cost to process a tuple
	CI             // CPU cost to process a tuple via index access
	CO             // CPU cost to perform an operation (hash, comparison)
)

// String implements fmt.Stringer.
func (u Unit) String() string {
	switch u {
	case CS:
		return "cs"
	case CR:
		return "cr"
	case CT:
		return "ct"
	case CI:
		return "ci"
	case CO:
		return "co"
	default:
		return fmt.Sprintf("Unit(%d)", int(u))
	}
}

// Units lists all cost units in index order.
var Units = [NumUnits]Unit{CS, CR, CT, CI, CO}

// Profile describes a simulated machine: the true (unobservable)
// distribution of each cost unit in seconds per operation, and the
// standard deviation of the per-operator log-scale model error. A
// Profile is a plain comparable value — two profiles with equal fields
// are the same machine — one of the paper's two machines (PC1, PC2,
// ProfileByName) or drifted from one (WithDrift).
type Profile struct {
	Name string
	// True distribution of each cost unit; the calibration framework
	// estimates these, it never reads them directly.
	True [NumUnits]stats.Normal
	// ModelErrSigma is the sigma of the lognormal factor exp(eps),
	// eps ~ N(0, ModelErrSigma^2), applied per operator. It models the
	// errors in g itself (interleaving of CPU and I/O, constant factors
	// the logical cost functions miss).
	ModelErrSigma float64
}

// drawUnit samples one realization of cost unit u.
func (p *Profile) drawUnit(u Unit, r *rand.Rand) float64 {
	d := p.True[u]
	v := d.Mu + d.Sigma*r.NormFloat64()
	// Cost units are physically positive; resample the rare negative tail.
	for v <= 0 {
		v = d.Mu + d.Sigma*r.NormFloat64()
	}
	return v
}

// OperatorTime realizes the running time of one operator with resource
// counts n: t = exp(eps) * sum_c n_c * c_draw, with fresh unit draws per
// operator (the paper's observation that e.g. the cost of a random I/O
// differs from operator to operator).
func (p *Profile) OperatorTime(counts engine.Counts, r *rand.Rand) float64 {
	var t float64
	for i := 0; i < NumUnits; i++ {
		n := counts.Get(i)
		if n > 0 {
			t += n * p.drawUnit(Unit(i), r)
		}
	}
	if p.ModelErrSigma > 0 {
		t *= math.Exp(p.ModelErrSigma * r.NormFloat64())
	}
	return t
}

// planTime realizes the total running time of an executed plan. The
// cost units are drawn once per run — they model the machine state
// (disk layout, cache temperature, background load) during that
// execution, the "fluctuations in the system state" of Section 1 — and
// shared by all operators; each operator additionally gets an
// independent lognormal model-error factor for the imperfection of g.
func (p *Profile) planTime(res *engine.OpResult, r *rand.Rand) float64 {
	var units [NumUnits]float64
	for i := 0; i < NumUnits; i++ {
		units[i] = p.drawUnit(Unit(i), r)
	}
	return p.opTreeTime(res, &units, r, 0)
}

// opTreeTime realizes the subtree rooted at op in preorder — the same
// order Results flattens in — folding each operator's time into the
// running total t left to right, so both the model-error draw sequence
// and the floating-point summation order (and thus every pinned
// measured time, bit for bit) are unchanged, without materializing the
// result slice per run.
func (p *Profile) opTreeTime(op *engine.OpResult, units *[NumUnits]float64, r *rand.Rand, t float64) float64 {
	var ot float64
	for i := 0; i < NumUnits; i++ {
		if n := op.Counts.Get(i); n > 0 {
			ot += n * units[i]
		}
	}
	if p.ModelErrSigma > 0 {
		ot *= math.Exp(p.ModelErrSigma * r.NormFloat64())
	}
	t += ot
	if op.Left != nil {
		t = p.opTreeTime(op.Left, units, r, t)
	}
	if op.Right != nil {
		t = p.opTreeTime(op.Right, units, r, t)
	}
	return t
}

// averageRuns is the paper's measurement protocol, which only Measure
// follows: run the query averageRuns times and average the times.
const averageRuns = 5

// measurePlan returns the "actual running time" of an executed plan:
// the mean of averageRuns successive realizations of planTime on r.
func (p *Profile) measurePlan(res *engine.OpResult, r *rand.Rand) float64 {
	var sum float64
	for i := 0; i < averageRuns; i++ {
		sum += p.planTime(res, r)
	}
	return sum / averageRuns
}

// ExpectedCost returns the deterministic cost sum_c n_c * mu_c of a count
// vector under the profile's true means — used by the overhead
// experiments to compare sample-run cost against full-run cost.
func (p *Profile) ExpectedCost(counts engine.Counts) float64 {
	var t float64
	for i := 0; i < NumUnits; i++ {
		t += counts.Get(i) * p.True[i].Mu
	}
	return t
}
