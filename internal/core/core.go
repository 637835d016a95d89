// Package core implements the paper's primary contribution: the
// uncertainty-aware query execution time predictor. Given a query plan,
// calibrated cost-unit distributions (Section 3.1), and sampled
// selectivity distributions (Section 3.2), it takes each operator's
// logical cost functions from the cost model (Section 4: exact
// coefficients where a count is already the polynomial of its class, a
// grid fit where it is not) and propagates means, variances, and
// covariances through the additive cost model to produce the
// distribution of likely running times t_q ~ N(E[t_q], Var[t_q])
// (Section 5, Algorithms 2-3).
//
// A prediction allocates only its result: cost functions are values,
// each item caches its covarying terms' moments, the Lemma 3 nesting
// test reads Node.End, and per-call scratch is pooled. The pinned
// digests hold every output's bits, so a rewrite here keeps each
// floating-point operation and its order.
package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/catalog"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/sample"
	"repro/internal/stats"
)

// Variant selects the predictor configuration of Section 6.3.3.
type Variant int

// Predictor variants: the complete framework and the three simplified
// versions compared in Figure 8.
const (
	All    Variant = iota // complete framework
	NoVarC                // ignore uncertainty in the cost units c
	NoVarX                // ignore uncertainty in the selectivities X
	NoCov                 // ignore covariances between selectivity estimates
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case All:
		return "All"
	case NoVarC:
		return "NoVar[c]"
	case NoVarX:
		return "NoVar[X]"
	case NoCov:
		return "NoCov"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Predictor holds the calibrated state shared across predictions.
type Predictor struct {
	Cat     *catalog.Catalog
	Units   [hardware.NumUnits]stats.Normal // calibrated cost units
	Variant Variant
}

// New constructs a predictor of variant v from a catalog and calibrated
// cost units.
func New(cat *catalog.Catalog, units [hardware.NumUnits]stats.Normal, v Variant) *Predictor {
	return &Predictor{Cat: cat, Units: units, Variant: v}
}

// OpPrediction is the per-operator share of the prediction.
type OpPrediction struct {
	NodeID int
	Kind   engine.NodeKind
	Mean   float64 // E[t_k]
	// Var is the sum of Var[f c] over the operator's per-unit items. It
	// is not Var[t_k]: it leaves out the covariances between the
	// operator's own items (a join's CT and CO functions share Xl and
	// Xr), which Prediction.Dist counts with the other cross-item terms.
	Var float64
}

// Prediction is the distribution of likely running times for one query.
type Prediction struct {
	// Dist is N(E[t_q], Var[t_q]); Dist.Mu is the point estimate the
	// predictor of [48] would return.
	Dist stats.Normal
	// PerOperator breaks the mean down by operator, and beside it each
	// operator's sum of per-unit item variances (see OpPrediction.Var).
	PerOperator []OpPrediction
	// CovDirect and CovBound split the cross-operator covariance mass
	// into exactly computed terms and upper-bounded terms (Algorithm 3's
	// VarOps vs CovOpsUb).
	CovDirect float64
	CovBound  float64
	// PerUnit breaks E[t_q] down by cost unit: PerUnit[u] is the mean
	// time in seconds attributable to unit u (hardware unit order). The
	// serving layer's feedback loop uses this to attribute calibration
	// drift to the unit dominating each query.
	PerUnit [hardware.NumUnits]float64
}

// Mean returns the point estimate E[t_q].
func (p *Prediction) Mean() float64 { return p.Dist.Mu }

// Sigma returns the standard deviation of the predicted distribution.
func (p *Prediction) Sigma() float64 { return p.Dist.Sigma }

// Interval returns the central interval containing probability mass q.
func (p *Prediction) Interval(q float64) (lo, hi float64) { return p.Dist.Interval(q) }

// DominantUnit returns the cost unit contributing the most to the
// predicted mean (ties break toward the lower unit index).
func (p *Prediction) DominantUnit() hardware.Unit {
	best := 0
	for u := 1; u < hardware.NumUnits; u++ {
		if p.PerUnit[u] > p.PerUnit[best] {
			best = u
		}
	}
	return hardware.Unit(best)
}

// varInfo is what the covariance bounds need about one selectivity
// random variable (one operator), beside its distribution and its node:
// its run of the plan's leaf ordinals.
type varInfo struct {
	// The operator's leaves are the ordinals [leafOff, leafOff+leafLen);
	// two operators' shared leaves are the intersection of their runs.
	// leafComp holds the per-leaf variance components over the same run,
	// as produced by the estimator and shared with it — read-only
	// (restricted sums give the S^2_{rho}(m,n) bounds of Theorem 7) — or
	// is nil when the variant ignores selectivity variance. The run keeps
	// its length then, so leafLen is not len(leafComp).
	leafOff, leafLen int
	leafComp         []float64
}

// item is one (operator, cost-unit) component of t_q: a logical cost
// function with its distribution under the selectivity variables, and
// terms[:nterms], the function's terms that can covary with another's —
// those with a variable and a nonzero coefficient, in term order.
type item struct {
	opID, unit int
	f          costmodel.Func
	mean, vr   float64
	terms      [3]covTerm
	nterms     int
}

// covTerm is a term with its moments, computed once per prediction.
type covTerm struct {
	costmodel.Term
	mean, vr float64
}

// newCovTerm computes E[t] and Var[t] = E[t²] − E[t]² for a term with a
// variable, its own variables mutually independent.
func newCovTerm(t costmodel.Term, vars []stats.Normal) covTerm {
	m, e2 := t.Mean(vars), t.Coef*t.Coef
	for i := 0; i < t.NVars; i++ {
		e2 *= vars[t.Vars[i]].Moment(2 * t.Pows[i])
	}
	v := e2 - m*m
	if v < 0 {
		v = 0
	}
	return covTerm{Term: t, mean: m, vr: v}
}

// assembly is the state shared by the analytic and Monte-Carlo
// prediction paths. nodes, vars, info and models are indexed by node ID
// — the operator's position in the plan's preorder. An assembly comes
// from assemblyPool and goes back by release.
type assembly struct {
	nodes   []*engine.Node // plan preorder
	vars    []stats.Normal
	info    []varInfo
	items   []item
	models  []costmodel.NodeModel
	selfRho []float64
}

var assemblyPool = sync.Pool{New: func() any { return new(assembly) }}

// release clears every reference into the plan and its estimates —
// nodes, models, the estimates' leaf slices — and returns a to the pool.
func (a *assembly) release() {
	clear(a.nodes)
	clear(a.info)
	clear(a.models)
	*a = assembly{nodes: a.nodes[:0], vars: a.vars[:0], info: a.info[:0],
		items: a.items[:0], models: a.models[:0], selfRho: a.selfRho[:0]}
	assemblyPool.Put(a)
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are the caller's to overwrite.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// CheckEstimates verifies that est was computed for the plan whose
// preorder is nodes: one operator per node, and each operator's leaf run
// either empty (at and above an aggregate) or exactly the node's own
// leaves. Everything downstream indexes by node ID and leaf ordinal
// without looking again; System.Measure runs the same check before it
// pairs operators with their estimates.
func CheckEstimates(nodes []*engine.Node, est *sample.Estimates) error {
	if len(est.Ops) != len(nodes) {
		return fmt.Errorf("core: estimates hold %d operators, the plan has %d", len(est.Ops), len(nodes))
	}
	off := 0 // leaf ordinal of the next scan: the leftmost leaf of nodes[i]
	for i, n := range nodes {
		if n.ID != i {
			return fmt.Errorf("core: node at preorder position %d has ID %d (plan not finalized)", i, n.ID)
		}
		e := &est.Ops[i]
		if k := len(e.LeafComp); k != 0 && (k != len(n.LeafTables) || e.LeafOff != off) {
			return fmt.Errorf("core: estimate of node %d (%v) covers %d leaves from ordinal %d, the operator has %d from %d",
				i, n.Kind, k, e.LeafOff, len(n.LeafTables), off)
		}
		if n.Kind.IsScan() {
			off++
		}
	}
	return nil
}

// assemble runs the front half of Algorithm 2: collect the selectivity
// variables and build every operator's per-unit cost functions, and with
// each function its covarying terms and their moments. The assembly is
// pooled: the caller releases it.
func (p *Predictor) assemble(root *engine.Node, est *sample.Estimates) (*assembly, error) {
	a := assemblyPool.Get().(*assembly)
	a.nodes = root.AppendNodes(a.nodes)
	if err := CheckEstimates(a.nodes, est); err != nil {
		a.release()
		return nil, err
	}
	n := len(a.nodes)
	a.vars, a.info, a.selfRho = resize(a.vars, n), resize(a.info, n), resize(a.selfRho, n)
	for i := range a.nodes {
		e := &est.Ops[i]
		a.selfRho[i] = e.Rho
		v, lc := e.Var, e.LeafComp
		if p.Variant == NoVarX {
			v, lc = 0, nil
		}
		a.vars[i] = stats.NormalFromVar(e.Rho, v)
		a.info[i] = varInfo{leafOff: e.LeafOff, leafLen: len(e.LeafComp), leafComp: lc}
	}

	var err error
	if a.models, err = costmodel.BuildModels(a.models, root, p.Cat, a.selfRho); err != nil {
		a.release()
		return nil, err
	}
	var ts [4]costmodel.Term
	for i := range a.nodes {
		funcs, err := costmodel.FitNode(&a.models[i], a.vars)
		if err != nil {
			a.release()
			return nil, err
		}
		for ui := range funcs {
			f := &funcs[ui]
			if f.IsZero() {
				continue
			}
			a.items = append(a.items, item{opID: i, unit: ui, f: *f})
			it := &a.items[len(a.items)-1]
			it.mean, it.vr = f.Dist(a.vars)
			nt := f.Terms(&ts)
			for _, t := range ts[:nt] {
				if t.NVars > 0 && t.Coef != 0 {
					it.terms[it.nterms] = newCovTerm(t, a.vars)
					it.nterms++
				}
			}
		}
	}
	return a, nil
}

// Predict computes the distribution of likely running times for a
// finalized plan given its sampled selectivity estimates. Estimates of
// another plan are an error.
func (p *Predictor) Predict(root *engine.Node, est *sample.Estimates) (*Prediction, error) {
	asm, err := p.assemble(root, est)
	if err != nil {
		return nil, err
	}
	defer asm.release()
	items := asm.items
	perOp := make([]OpPrediction, len(asm.nodes))
	for i, n := range asm.nodes {
		perOp[i] = OpPrediction{NodeID: i, Kind: n.Kind}
	}

	// Unit moments, honoring the NoVar[c] ablation.
	var ec, vc [hardware.NumUnits]float64
	for i := 0; i < hardware.NumUnits; i++ {
		ec[i] = p.Units[i].Mu
		if p.Variant != NoVarC {
			vc[i] = p.Units[i].Var()
		}
	}

	// E[t_q] = sum_k sum_c E[f_kc] E[c]; per-operator and per-unit means
	// alongside.
	var mean float64
	var perUnit [hardware.NumUnits]float64
	for i := range items {
		it := &items[i]
		t := it.mean * ec[it.unit]
		mean += t
		perOp[it.opID].Mean += t
		perUnit[it.unit] += t
	}

	// Var[t_q] = sum over all ordered pairs of Cov(t_i, t_j)
	// (Section 5.3). Same-item terms give Var[f c]; cross terms combine
	// exact covariances and upper bounds.
	var variance, covDirect, covBound float64
	for i := range items {
		a := &items[i]
		// Var[f c] = E[f]^2 Var[c] + E[c]^2 Var[f] + Var[c] Var[f].
		v := a.mean*a.mean*vc[a.unit] + ec[a.unit]*ec[a.unit]*a.vr + vc[a.unit]*a.vr
		variance += v
		perOp[a.opID].Var += v
		for j := i + 1; j < len(items); j++ {
			b := &items[j]
			covF, bound := p.covFuncs(a, b, asm)
			var contrib float64
			if a.unit == b.unit {
				// Cov(f c, f' c) = E[c]^2 Cov + Var[c](E[f]E[f'] + Cov).
				contrib = ec[a.unit]*ec[a.unit]*covF +
					vc[a.unit]*(a.mean*b.mean+covF)
			} else {
				// Independent units: Cov(f c, f' c') = E[c]E[c'] Cov(f,f').
				contrib = ec[a.unit] * ec[b.unit] * covF
			}
			variance += 2 * contrib
			if bound {
				covBound += 2 * contrib
			} else {
				covDirect += 2 * contrib
			}
		}
	}
	if variance < 0 {
		variance = 0
	}

	return &Prediction{
		Dist:        stats.NormalFromVar(mean, variance),
		PerOperator: perOp,
		CovDirect:   covDirect,
		CovBound:    covBound,
		PerUnit:     perUnit,
	}, nil
}

// covFuncs returns Cov(f_a, f_b) between two items' cost functions, the
// sum of covTerms over their covarying terms in term order, and whether
// any upper bound was involved. Every other term pair adds an exact +0
// to a sum that starts at +0 and so is never −0: leaving them out keeps
// every bit.
func (p *Predictor) covFuncs(a, b *item, asm *assembly) (cov float64, bounded bool) {
	for i := range a.terms[:a.nterms] {
		for j := range b.terms[:b.nterms] {
			c, bnd := p.covTerms(&a.terms[i], &b.terms[j], asm)
			cov += c
			if bnd {
				bounded = true
			}
		}
	}
	return cov, bounded
}

// covTerms computes or bounds Cov(a, b) for two covarying terms. It is
// exact when no variable of a is nested in a variable of b or the other
// way round (Lemma 3: estimates depend only along ancestor-descendant
// paths); a variable is its operator's node ID, and node d lies strictly
// inside node v's subtree exactly when v < d < End(v).
func (p *Predictor) covTerms(a, b *covTerm, asm *assembly) (float64, bool) {
	nested := false
	for i := 0; i < a.NVars; i++ {
		for j := 0; j < b.NVars; j++ {
			va, vb := a.Vars[i], b.Vars[j]
			if va < vb && vb < asm.nodes[va].End || vb < va && va < asm.nodes[vb].End {
				nested = true
			}
		}
	}
	if !nested {
		return a.CovGiven(b.Term, asm.vars, a.mean, b.mean), false
	}
	if p.Variant == NoCov {
		return 0, false
	}
	return p.boundTermCov(a, b, math.Sqrt(a.vr*b.vr), asm), true
}

// boundTermCov returns an upper bound for |Cov(a, b)| when the terms
// involve correlated selectivity estimates from nested operators
// (Section 5.3.2 and Appendix A.7): the Cauchy-Schwarz bound cs =
// sqrt(Var[a] Var[b]), or for two linear terms in estimates sharing
// leaves the sample-variance bound of Theorem 7 where it is tighter.
// Theorem 8's population bound f(n,m) g(rho) g(rho') is not computed:
// it binds only when the leaf sizes n are whole relations, which no
// sampled estimate has. Nor are the population bounds of squared terms
// (Theorems 9 and 10): on generated plans neither was ever the minimum.
func (p *Predictor) boundTermCov(a, b *covTerm, cs float64, asm *assembly) float64 {
	if a.NVars != 1 || b.NVars != 1 || a.Pows[0] != 1 || b.Pows[0] != 1 {
		return cs
	}
	ia, ib := &asm.info[a.Vars[0]], &asm.info[b.Vars[0]]
	if sharedLeaves(ia, ib) == 0 {
		return cs
	}
	// Theorem 7: |Cov(rho, rho')| <= sqrt(S^2(m,n) S'^2(m,n)), realized
	// by restricting the leaf variance components of each estimate to the
	// shared relations.
	if t7 := math.Abs(a.Coef*b.Coef) * math.Sqrt(restrictedVar(ia, ib)*restrictedVar(ib, ia)); t7 < cs {
		return t7
	}
	return cs
}

// overlap intersects the leaf runs [aOff, aOff+aLen) and [bOff, bOff+bLen).
// The intersection is empty when hi <= lo.
func overlap(aOff, aLen, bOff, bLen int) (lo, hi int) {
	return max(aOff, bOff), min(aOff+aLen, bOff+bLen)
}

// sharedLeaves returns m = |R ∩ R'|, the number of leaf relations two
// operators share.
func sharedLeaves(a, b *varInfo) int {
	lo, hi := overlap(a.leafOff, a.leafLen, b.leafOff, b.leafLen)
	return max(hi-lo, 0)
}

// restrictedVar returns S^2_rho(m, n): the variance components of `of`
// restricted to the leaf relations it shares with `with` (Appendix A.7),
// summed in ascending leaf ordinal.
func restrictedVar(of, with *varInfo) float64 {
	lo, hi := overlap(of.leafOff, len(of.leafComp), with.leafOff, with.leafLen)
	var s float64
	for k := lo; k < hi; k++ {
		s += of.leafComp[k-of.leafOff]
	}
	return s
}
