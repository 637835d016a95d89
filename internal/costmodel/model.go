package costmodel

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/stats"
)

// NodeModel is the optimizer-side analytic cost model of one plan
// operator: a deterministic mapping from (hypothetical) input
// selectivities to the resource counts n of Equation (1). FitNode reads
// its cost functions off this mapping, and probes it ("invoke the cost
// model", Section 4.2) only where a count is not a polynomial.
type NodeModel struct {
	Node *engine.Node

	// VarA and VarB identify the selectivity variables: the node IDs of
	// the operators whose output selectivities drive this node's cost —
	// the indices FitNode reads in its vars slice; -1 when unused. Scans
	// use their own ID; unary operators use their child's variable; joins
	// use both children's variables.
	VarA, VarB int

	// SizeL and SizeR are Π|R| over the left and right child subtrees'
	// leaf tables (full database sizes), so Nl = Xl*SizeL, Nr = Xr*SizeR.
	SizeL, SizeR float64
	// Size is Π|R| over this node's leaf tables.
	Size float64

	// Theta scales the node's own output: M = Theta * Xl * Xr * Size for
	// joins, calibrated at the estimated selectivities so that M matches
	// rho_self there. Scans use M = X * Size directly.
	Theta float64

	// NumPreds is the number of pushed-down predicates on a scan.
	NumPreds int
	// ResidFactor is the optimizer's estimated combined selectivity of
	// an index scan's residual predicates (those after the index
	// predicate); the index fetch count is M / ResidFactor.
	ResidFactor float64
}

// varOwner resolves which operator's selectivity variable represents the
// output of a subtree: pass-through nodes (Sort, Materialize) delegate to
// their input.
func varOwner(n *engine.Node) int {
	switch n.Kind {
	case engine.Sort, engine.Materialize:
		return varOwner(n.Left)
	default:
		return n.ID
	}
}

// BuildModels constructs the NodeModel of every plan node, indexed by
// node ID, in models when its capacity covers the plan (nil allocates).
// selfRho holds each operator's estimated selectivity by node ID (one
// entry per plan node, zero where unknown), used only to calibrate Theta.
func BuildModels(models []NodeModel, root *engine.Node, cat *catalog.Catalog, selfRho []float64) ([]NodeModel, error) {
	models = slices.Grow(models[:0], len(selfRho))[:len(selfRho)]
	if err := buildModel(models, root, cat, selfRho); err != nil {
		return nil, err
	}
	return models, nil
}

// buildModel fills models[n.ID] and the models of n's subtree.
func buildModel(models []NodeModel, n *engine.Node, cat *catalog.Catalog, selfRho []float64) error {
	size, err := cat.FullSize(n)
	if err != nil {
		return err
	}
	m := &models[n.ID]
	*m = NodeModel{Node: n, VarA: -1, VarB: -1, Size: size}
	switch {
	case n.Kind.IsScan():
		m.VarA = n.ID
		m.SizeL = size
		m.NumPreds = len(n.Preds)
		m.ResidFactor = 1
		for i := 1; i < len(n.Preds); i++ {
			sel, err := cat.PredicateSelectivity(n.Table, &n.Preds[i])
			if err != nil {
				return err
			}
			if sel > 0 && sel < 1 {
				m.ResidFactor *= sel
			}
		}
	case n.Kind.IsJoin():
		if err := buildModel(models, n.Left, cat, selfRho); err != nil {
			return err
		}
		if err := buildModel(models, n.Right, cat, selfRho); err != nil {
			return err
		}
		m.VarA = varOwner(n.Left)
		m.VarB = varOwner(n.Right)
		m.SizeL, m.SizeR = models[n.Left.ID].Size, models[n.Right.ID].Size
		// Calibrate Theta at the estimated point; fall back to the
		// optimizer's join selectivity factor (M = Nl*Nr*f implies
		// Theta = f) when estimates are unavailable or degenerate.
		xa, xb := selfRho[m.VarA], selfRho[m.VarB]
		self := selfRho[n.ID]
		if xa > 0 && xb > 0 && self > 0 {
			m.Theta = self / (xa * xb)
		} else if f, err := cat.JoinFactor(n); err == nil {
			m.Theta = f
		}
	default: // unary
		if err := buildModel(models, n.Left, cat, selfRho); err != nil {
			return err
		}
		m.VarA = varOwner(n.Left)
		m.SizeL = models[n.Left.ID].Size
	}
	return nil
}

// Counts invokes the cost model at hypothetical selectivities (xa, xb):
// the optimizer's estimate of the resource counts this operator would
// incur — the engine's own count formulas at the cardinalities the
// selectivities imply. xb is ignored for unary operators and scans.
func (m *NodeModel) Counts(xa, xb float64) engine.Counts {
	n := m.Node
	switch {
	case n.Kind == engine.SeqScan:
		c := engine.ScanCounts(n.Kind, m.SizeL, 0, m.NumPreds)
		// The one count of its own: the page count stays unrounded,
		// where the engine reads whole pages. It is a constant (C1) cost,
		// and every pinned prediction was made with it unrounded.
		c.NS = m.SizeL / engine.TuplesPerPage
		return c
	case n.Kind == engine.IndexScan:
		// The index fetches the tuples satisfying the index predicate;
		// with residual selectivity ResidFactor, that is M / ResidFactor.
		mIdx := xa * m.SizeL
		if m.ResidFactor > 0 {
			mIdx /= m.ResidFactor
		}
		return engine.ScanCounts(n.Kind, m.SizeL, math.Min(mIdx, m.SizeL), m.NumPreds)
	case n.Kind.IsJoin():
		return engine.JoinCounts(n.Kind, xa*m.SizeL, xb*m.SizeR, m.Theta*xa*xb*m.Size)
	default:
		return engine.UnaryCounts(n.Kind, xa*m.SizeL)
	}
}

// kindFor returns the canonical cost-function type of unit u of this
// operator (the classification of Section 4.1) and, where the count is
// exactly that polynomial over x's probe interval, its coefficients read
// off Counts, with exact true. A C1 count is constant in X, read off
// Counts at the estimate; Sort's N log N and an index scan whose interval
// crosses the clamp are not polynomials there (exact false).
func (m *NodeModel) kindFor(u hardware.Unit, x stats.Normal) (kind FuncKind, b [4]float64, exact bool) {
	switch m.Node.Kind {
	case engine.SeqScan: // every count constant in X
	case engine.IndexScan:
		if u == hardware.CS {
			break
		}
		// NR = NT = NI = min(X·SizeL/ResidFactor, SizeL); NO, the residual
		// predicate evaluations, is k = NumPreds−1 times that.
		k := 1.0
		if u == hardware.CO {
			k = float64(m.NumPreds - 1)
		}
		perX := m.SizeL
		if m.ResidFactor > 0 {
			perX /= m.ResidFactor
		}
		switch lo, hi := probeInterval(x); {
		case hi*perX <= m.SizeL:
			return c2, [4]float64{k * perX, 0}, true
		case lo*perX >= m.SizeL:
			return c2, [4]float64{0, k * m.SizeL}, true
		}
		return c2, b, false
	case engine.Sort:
		switch u {
		case hardware.CT:
			return c3, [4]float64{m.SizeL, 0}, true // NT = Xl·SizeL
		case hardware.CO:
			return c4, b, false // NO = Nl·log2(Nl), fitted by a quadratic
		}
	case engine.Materialize:
		if u == hardware.CT {
			return c3, [4]float64{m.SizeL, 0}, true // NT = Xl·SizeL
		}
	case engine.Aggregate:
		switch u {
		case hardware.CT:
			return c3, [4]float64{m.SizeL, 0}, true // NT = Xl·SizeL
		case hardware.CO:
			return c3, [4]float64{2 * m.SizeL, 0}, true // NO = 2·Xl·SizeL
		}
	case engine.HashJoin, engine.MergeJoin:
		switch u {
		case hardware.CT:
			return c6, [4]float64{m.Theta * m.Size, m.SizeL, m.SizeR, 0}, true // NT = NO + Theta·Xl·Xr·Size
		case hardware.CO:
			return c5, [4]float64{m.SizeL, m.SizeR, 0}, true // NO = Xl·SizeL + Xr·SizeR
		}
	case engine.NestLoopJoin:
		switch u {
		case hardware.CT:
			return c6, [4]float64{m.Theta * m.Size, m.SizeL, m.SizeR, 0}, true // NT = Xl·SizeL + Xr·SizeR + Theta·Xl·Xr·Size
		case hardware.CO:
			return c6, [4]float64{m.SizeL * m.SizeR, 0, 0, 0}, true // NO = Xl·SizeL · Xr·SizeR
		}
	default:
		panic(fmt.Sprintf("costmodel: kind for %v", m.Node.Kind))
	}
	return c1, b, false // every other count is constant in X
}
