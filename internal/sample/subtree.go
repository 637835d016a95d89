package sample

// The sampling pass itself (Algorithm 1), computed per subtree. Every
// operator's estimate is a Pass — a pure function of its subtree and of
// the sample copies its leaves read — so the one bottom-up walk below
// serves both entry points: Estimate computes every Pass, EstimateMemo
// asks a caller-supplied memo keyed by canonical subtree signature plus
// sample-copy assignment first. Two plans that share a subtree — e.g.
// alternative join orders enumerated by one Alternatives call, which
// permute the upper joins but keep lower subtrees intact — then share
// that subtree's sampling computation instead of each paying for it.
//
// The trick that makes a subtree pass position-independent is the local
// leaf frame: inside a Pass, the subtree's leaves are numbered
// 0..NumLeaves-1 left to right and sample-tuple provenance is
// positional, so nothing in the cached value depends on where the
// subtree sits in the enclosing plan. Only the OpEstimate leaf maps need
// re-keying (by the subtree's global leaf offset) when a Pass is spliced
// into a plan's Estimates, and only the sample-copy assignment — made
// globally, in left-to-right plan order — enters the cache key, so a
// memoized Pass carries exactly the numbers a fresh one would.

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// Pass is the sampling computation of one plan subtree in the subtree's
// local leaf frame. It is immutable once computed and may be shared by
// any number of plans and goroutines.
type Pass struct {
	rows      []srow   // surviving sample tuples, positional provenance
	cols      []string // output columns, left to right
	numLeaves int
	// tainted marks the region at and above an aggregate (the Agg flag
	// of Algorithm 1), where sampling no longer applies: rows is nil and
	// est carries the optimizer's fallback numbers.
	tainted bool
	// est is the subtree root's estimate with LeafComp/LeafN keyed by
	// local leaf ordinals and Node left nil (both are position-dependent
	// and re-derived when the Pass is spliced into a plan).
	est OpEstimate
}

// NumLeaves returns the number of leaf relations under the subtree.
func (p *Pass) NumLeaves() int { return p.numLeaves }

// Rho returns the subtree root's selectivity estimate.
func (p *Pass) Rho() float64 { return p.est.Rho }

// PassMemo memoizes subtree passes by key: return the cached Pass for
// key, or compute, retain, and return it. Implementations own
// concurrency (the walk is sequential per plan, but several plans may
// estimate at once). A nil PassMemo disables memoization.
type PassMemo func(key string, compute func() (*Pass, error)) (*Pass, error)

// globalEstimate splices the Pass's root estimate into a plan: leaf maps
// re-keyed by the subtree's global leaf offset, Node bound to the plan's
// own operator.
func (p *Pass) globalEstimate(n *engine.Node, offset int) *OpEstimate {
	lc := make(map[int]float64, len(p.est.LeafComp))
	for o, v := range p.est.LeafComp {
		lc[o+offset] = v
	}
	ln := make(map[int]int, len(p.est.LeafN))
	for o, v := range p.est.LeafN {
		ln[o+offset] = v
	}
	e := p.est
	e.Node = n
	e.LeafComp = lc
	e.LeafN = ln
	return &e
}

// passKey renders the memo key of a subtree: its canonical signature
// (operators, predicates, join order — the same rendering whole-plan
// memo keys use) plus the sample-copy index assigned to each leaf, so a
// subtree evaluated against different sample copies never aliases.
func passKey(n *engine.Node, copies []int) string {
	var b strings.Builder
	b.WriteString(n.String())
	b.WriteString("\x00copies=")
	for i, c := range copies {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// copyVec collects the sample-copy indices of the subtree's leaves in
// left-to-right order.
func copyVec(n *engine.Node, scanCopy map[int]int) []int {
	var out []int
	var walk func(x *engine.Node)
	walk = func(x *engine.Node) {
		if x.Kind.IsScan() {
			out = append(out, scanCopy[x.ID])
			return
		}
		if x.Left != nil {
			walk(x.Left)
		}
		if x.Right != nil {
			walk(x.Right)
		}
	}
	walk(n)
	return out
}

// subtreeOffset returns the global ordinal of the subtree's leftmost
// leaf — the offset that maps its local leaf frame into the plan's.
func subtreeOffset(n *engine.Node, scanOrd map[int]int) int {
	for !n.Kind.IsScan() {
		n = n.Left
	}
	return scanOrd[n.ID]
}

// EstimateMemo is Estimate with the work memoized per subtree through
// memo: every operator — scans and joins below any aggregate, but also
// unary pass-throughs, aggregates, and the tainted joins above them —
// does one memo lookup keyed by its canonical subtree signature and
// sample-copy assignment, so plans sharing subtrees (alternative join
// orders above common lower joins) share those subtrees' sampling
// computations and a warm pass recomputes nothing, tainted region
// included. A nil memo computes every pass, which is what Estimate
// does; the numbers do not depend on the memo. The ctx is observed
// between node evaluations, so cancellation cuts a pass short promptly.
func EstimateMemo(ctx context.Context, root *engine.Node, sdb *DB, cat *catalog.Catalog, memo PassMemo) (*Estimates, error) {
	return estimatePlan(ctx, root, sdb, cat, memo, OptimizerAgg)
}

// estimatePlan is the one bottom-up walk behind Estimate, EstimateMemo
// and EstimateWithOpts. agg selects the aggregate estimator; the memo'd
// entry point always passes OptimizerAgg, so the aggregate mode never
// needs to enter a memo key.
func estimatePlan(ctx context.Context, root *engine.Node, sdb *DB, cat *catalog.Catalog, memo PassMemo, agg AggEstimator) (*Estimates, error) {
	if memo == nil {
		memo = func(_ string, compute func() (*Pass, error)) (*Pass, error) { return compute() }
	}
	if ctx == nil {
		ctx = context.Background()
	}
	est := &Estimates{ByID: make(map[int]*OpEstimate)}

	// Pre-pass: assign each scan its global leaf ordinal and sample copy
	// in left-to-right plan order, each further appearance of a relation
	// taking the next copy.
	scanTable := make(map[int]*Table)
	scanOrd := make(map[int]int)
	scanCopy := make(map[int]int)
	copyUse := make(map[string]int)
	leafCounter := 0
	var assign func(n *engine.Node) error
	assign = func(n *engine.Node) error {
		if n.Kind.IsScan() {
			copies := sdb.Copies[n.Table]
			if len(copies) == 0 {
				return fmt.Errorf("sample: no sample tables for %q", n.Table)
			}
			ci := copyUse[n.Table] % len(copies)
			scanOrd[n.ID] = leafCounter
			scanCopy[n.ID] = ci
			scanTable[n.ID] = copies[ci]
			copyUse[n.Table]++
			leafCounter++
			return nil
		}
		if n.Left != nil {
			if err := assign(n.Left); err != nil {
				return err
			}
		}
		if n.Right != nil {
			if err := assign(n.Right); err != nil {
				return err
			}
		}
		return nil
	}
	if err := assign(root); err != nil {
		return nil, err
	}

	// Bottom-up walk. A Pass with tainted set marks the region at and
	// above an aggregate, where sampling no longer applies (the Agg flag
	// of Algorithm 1) and estimates fall back to the optimizer's. The
	// tainted region and the unary pass-throughs memoize like everything
	// else — their fallback numbers are pure functions of the subtree
	// signature and copy assignment too — so a warm pass over a plan
	// with sorts or aggregates recomputes nothing.
	var walk func(n *engine.Node) (*Pass, error)
	walk = func(n *engine.Node) (*Pass, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		switch {
		case n.Kind.IsScan():
			p, err := memo(passKey(n, []int{scanCopy[n.ID]}), func() (*Pass, error) {
				return scanPass(n, scanTable[n.ID], cat)
			})
			if err != nil {
				return nil, err
			}
			est.ByID[n.ID] = p.globalEstimate(n, scanOrd[n.ID])
			return p, nil

		case n.Kind.IsJoin():
			left, err := walk(n.Left)
			if err != nil {
				return nil, err
			}
			right, err := walk(n.Right)
			if err != nil {
				return nil, err
			}
			var p *Pass
			if left.tainted || right.tainted {
				// Above an aggregate: optimizer estimate, zero variance.
				p, err = memo(passKey(n, copyVec(n, scanCopy)), func() (*Pass, error) {
					return taintedJoinPass(n, left.numLeaves+right.numLeaves, cat)
				})
			} else {
				p, err = memo(passKey(n, copyVec(n, scanCopy)), func() (*Pass, error) {
					return joinPass(n, left, right, cat)
				})
			}
			if err != nil {
				return nil, err
			}
			est.ByID[n.ID] = p.globalEstimate(n, subtreeOffset(n, scanOrd))
			return p, nil

		case n.Kind == engine.Aggregate:
			child, err := walk(n.Left)
			if err != nil {
				return nil, err
			}
			p, err := memo(passKey(n, copyVec(n, scanCopy)), func() (*Pass, error) {
				return aggregatePass(n, child, cat, agg)
			})
			if err != nil {
				return nil, err
			}
			est.ByID[n.ID] = p.globalEstimate(n, subtreeOffset(n, scanOrd))
			return p, nil

		default: // Sort, Materialize: pass-through, same selectivity variable
			child, err := walk(n.Left)
			if err != nil {
				return nil, err
			}
			p, err := memo(passKey(n, copyVec(n, scanCopy)), func() (*Pass, error) {
				return unaryPass(n, child), nil
			})
			if err != nil {
				return nil, err
			}
			est.ByID[n.ID] = p.globalEstimate(n, subtreeOffset(n, scanOrd))
			return p, nil
		}
	}
	if _, err := walk(root); err != nil {
		return nil, err
	}
	return est, nil
}

// taintedJoinPass builds the Pass of a join above an aggregate: the
// sampling pass stops at the aggregate, so the join's estimate is the
// optimizer's cardinality over its full Cartesian size, with zero
// variance and empty (non-nil) leaf maps.
func taintedJoinPass(n *engine.Node, numLeaves int, cat *catalog.Catalog) (*Pass, error) {
	full, err := fullSize(n, cat)
	if err != nil {
		return nil, err
	}
	card, err := optimizerCard(n, cat)
	if err != nil {
		return nil, err
	}
	rho := 0.0
	if full > 0 {
		rho = card / full
	}
	return &Pass{
		numLeaves: numLeaves,
		tainted:   true,
		est: OpEstimate{
			Rho:           rho,
			FromOptimizer: true,
			LeafComp:      map[int]float64{},
			LeafN:         map[int]int{},
			EstCard:       card,
		},
	}, nil
}

// aggregatePass builds the Pass of an aggregate — the node that taints
// everything above it. The estimate is the optimizer's group count, or
// under GEEAgg the GEE extrapolation of the group keys in the child's
// sampled rows when the child is itself below any aggregate; the sample
// counts record the unary work of aggregating the child's surviving
// sample rows (zero when the child itself is tainted), which is fixed
// by the subtree signature and copy assignment, so the Pass memoizes
// safely.
func aggregatePass(n *engine.Node, child *Pass, cat *catalog.Catalog, agg AggEstimator) (*Pass, error) {
	rows := len(child.rows)
	full, err := fullSize(n, cat)
	if err != nil {
		return nil, err
	}
	card, err := optimizerCard(n, cat)
	if err != nil {
		return nil, err
	}
	if agg == GEEAgg && !child.tainted {
		if gee, ok := geeAggregateCard(n, child); ok {
			card = gee
		}
	}
	rho := 0.0
	if full > 0 {
		rho = card / full
	}
	return &Pass{
		numLeaves: child.numLeaves,
		tainted:   true,
		est: OpEstimate{
			Rho:           rho,
			Var:           0,
			LeafComp:      map[int]float64{},
			LeafN:         map[int]int{},
			FromOptimizer: true,
			EstCard:       card,
			SampleCounts:  engine.UnaryCounts(engine.Aggregate, float64(rows)),
		},
	}, nil
}

// unaryPass builds the Pass of a Sort or Materialize: the child's rows
// and estimate pass through unchanged — same selectivity variable, same
// leaf components, same taint — with only the operator's own unary work
// added to the sample counts.
func unaryPass(n *engine.Node, child *Pass) *Pass {
	e := child.est
	e.SampleCounts = engine.UnaryCounts(n.Kind, float64(len(child.rows)))
	return &Pass{
		rows:      child.rows,
		cols:      child.cols,
		numLeaves: child.numLeaves,
		tainted:   child.tainted,
		est:       e,
	}
}

// scanPass evaluates one scan over its sample table in the local frame
// (the scan is leaf ordinal 0 of its own subtree).
func scanPass(n *engine.Node, st *Table, cat *catalog.Catalog) (*Pass, error) {
	idx := make([]int, len(n.Preds))
	for pi := range n.Preds {
		idx[pi] = -1
		for i, c := range st.cols {
			if c == n.Preds[pi].Col {
				idx[pi] = i
				break
			}
		}
		if idx[pi] < 0 {
			return nil, fmt.Errorf("sample: predicate column %q not in %q", n.Preds[pi].Col, n.Table)
		}
	}
	nTotal := st.N()
	rows := make([]srow, 0, nTotal)
	mIndex := 0.0
	for i, r := range st.Rows {
		if len(n.Preds) > 0 && !n.Preds[0].Matches(r[idx[0]]) {
			continue
		}
		mIndex++
		ok := true
		for pi := 1; pi < len(n.Preds); pi++ {
			if !n.Preds[pi].Matches(r[idx[pi]]) {
				ok = false
				break
			}
		}
		if ok {
			rows = append(rows, srow{vals: r, prov: []int32{int32(i)}})
		}
	}
	if len(n.Preds) == 0 {
		mIndex = float64(nTotal)
	}
	rho := float64(len(rows)) / float64(nTotal)
	// S^2_n = rho(1-rho) for a selection; sigma_n^2 = S^2_n / n.
	v := rho * (1 - rho) / float64(nTotal)
	// Floor an all-miss sample at half an observation with 100% relative
	// uncertainty; a hard zero would make downstream costs degenerate.
	if len(rows) == 0 {
		rho = 0.5 / float64(nTotal)
		v = rho * rho
	}
	full, err := fullSize(n, cat)
	if err != nil {
		return nil, err
	}
	return &Pass{
		rows:      rows,
		cols:      st.cols,
		numLeaves: 1,
		est: OpEstimate{
			Rho:          rho,
			Var:          v,
			LeafComp:     map[int]float64{0: v},
			LeafN:        map[int]int{0: nTotal},
			EstCard:      rho * full,
			SampleCounts: engine.ScanCounts(n.Kind, float64(nTotal), mIndex, len(n.Preds)),
		},
	}, nil
}

// joinPass joins two child passes in the local frame: the left child
// keeps ordinals 0..nl-1, the right child's shift up by nl, so local
// ordinal and provenance position coincide (Algorithm 1 lines 11-13 and
// the Appendix A.7 components).
func joinPass(n *engine.Node, left, right *Pass, cat *catalog.Catalog) (*Pass, error) {
	li := colIndex(left.cols, n.LeftCol)
	ri := colIndex(right.cols, n.RightCol)
	if li < 0 || ri < 0 {
		return nil, fmt.Errorf("sample: join columns %q/%q not found", n.LeftCol, n.RightCol)
	}
	out := hashJoinRows(left.rows, right.rows, li, ri)
	k := left.numLeaves + right.numLeaves

	leafN := make(map[int]int, k)
	for o, v := range left.est.LeafN {
		leafN[o] = v
	}
	for o, v := range right.est.LeafN {
		leafN[o+left.numLeaves] = v
	}

	// rho_n = |out| / Pi_k n_k, accumulated in left-to-right leaf order.
	prodN := 1.0
	for o := 0; o < k; o++ {
		prodN *= float64(leafN[o])
	}
	rho := float64(len(out)) / prodN

	// Q_{k,j,n} accumulation (Algorithm 1 lines 11-13): one scan of the
	// join result, incrementing dense per-leaf arrays indexed by
	// provenance (position o is local ordinal o; the sample-tuple index is
	// always in [0, n_k) — tainted subtrees never reach joinPass). Dense
	// arrays keep the variance sum below in a fixed order — map iteration
	// would reorder the float additions run to run and break the
	// byte-identical determinism contract.
	qs := make([][]float64, k)
	for o := range qs {
		qs[o] = make([]float64, leafN[o])
	}
	for _, t := range out {
		for o := 0; o < k; o++ {
			qs[o][t.prov[o]]++
		}
	}

	// Per-leaf variance components: V_k = (1/(n_k-1)) sum_j
	// (Q_{k,j}/prod_{k'!=k} n_{k'} - rho)^2, W_k = V_k / n_k.
	// Tuples j with Q_{k,j} = 0 contribute d = -rho, i.e. rho^2 each.
	leafComp := make(map[int]float64, k)
	var totalVar float64
	for o := 0; o < k; o++ {
		nk := float64(leafN[o])
		denom := prodN / nk
		var ss float64
		for _, q := range qs[o] {
			d := q/denom - rho
			ss += d * d
		}
		vk := 0.0
		if nk > 1 {
			vk = ss / (nk - 1)
		}
		wk := vk / nk
		leafComp[o] = wk
		totalVar += wk
	}

	full, err := fullSize(n, cat)
	if err != nil {
		return nil, err
	}

	// Guard against empty sample joins: the estimator would report a
	// zero selectivity with zero variance, which is overconfident. Use
	// half an observation — the sample's resolution limit — with 100%
	// relative uncertainty, spread evenly over the leaves. This
	// deliberately overestimates very small selectivities and flags them
	// with a correspondingly large sigma: the estimator knows that it
	// cannot resolve the value, which is exactly the self-awareness the
	// predictor propagates. (The paper never hits this regime: its
	// absolute sample sizes are in the tens of thousands even at
	// SR = 0.01.)
	if len(out) == 0 {
		rho = 0.5 / prodN
		totalVar = rho * rho
		for o := 0; o < k; o++ {
			leafComp[o] = totalVar / float64(k)
		}
	}

	return &Pass{
		rows:      out,
		cols:      append(append([]string{}, left.cols...), right.cols...),
		numLeaves: k,
		est: OpEstimate{
			Rho:      rho,
			Var:      totalVar,
			LeafComp: leafComp,
			LeafN:    leafN,
			EstCard:  rho * full,
			SampleCounts: engine.JoinCounts(n.Kind,
				float64(len(left.rows)), float64(len(right.rows)), float64(len(out))),
		},
	}, nil
}
