package engine

import (
	"fmt"
	"math"
	"slices"
)

// Counts are the resource counts of PostgreSQL's cost model, Equation (1)
// of the paper: pages sequentially scanned, pages randomly accessed,
// tuples processed, tuples processed via index, and CPU operations.
type Counts struct {
	NS float64 // sequential page reads   -> cs
	NR float64 // random page reads       -> cr
	NT float64 // tuples processed        -> ct
	NI float64 // index tuple accesses    -> ci
	NO float64 // CPU operations          -> co
}

// Add returns the component-wise sum.
func (c Counts) Add(o Counts) Counts {
	return Counts{c.NS + o.NS, c.NR + o.NR, c.NT + o.NT, c.NI + o.NI, c.NO + o.NO}
}

// Get returns the count for cost-unit index u (0..4 = ns,nr,nt,ni,no).
func (c Counts) Get(u int) float64 {
	switch u {
	case 0:
		return c.NS
	case 1:
		return c.NR
	case 2:
		return c.NT
	case 3:
		return c.NI
	case 4:
		return c.NO
	default:
		panic(fmt.Sprintf("engine: cost unit index %d out of range", u))
	}
}

// OpResult holds one operator's execution outcome: its output relation,
// true cardinalities, selectivity X = M / Π|R| (Equation 3), and resource
// counts.
type OpResult struct {
	Node *Node
	Cols []string
	Rows [][]int64

	Nl, Nr      float64 // input cardinalities
	M           float64 // output cardinality
	LeafProduct float64 // Π_{R in leaf tables} |R|
	Selectivity float64 // X = M / LeafProduct

	Counts Counts

	Left, Right *OpResult
}

// Results flattens the result tree in preorder (same order as
// Node.Finalize).
func (r *OpResult) Results() []*OpResult {
	var out []*OpResult
	var walk func(x *OpResult)
	walk = func(x *OpResult) {
		out = append(out, x)
		if x.Left != nil {
			walk(x.Left)
		}
		if x.Right != nil {
			walk(x.Right)
		}
	}
	walk(r)
	return out
}

// TotalCounts sums the resource counts over the whole plan.
func (r *OpResult) TotalCounts() Counts {
	var total Counts
	for _, x := range r.Results() {
		total = total.Add(x.Counts)
	}
	return total
}

// Run executes the finalized plan against db and returns the result tree.
func Run(db *DB, root *Node) (*OpResult, error) {
	if err := root.Validate(); err != nil {
		return nil, err
	}
	return runNode(db, root)
}

func runNode(db *DB, n *Node) (*OpResult, error) {
	switch {
	case n.Kind.IsScan():
		return runScan(db, n)
	case n.Kind.IsJoin():
		return runJoin(db, n)
	case n.Kind == Aggregate:
		return runAggregate(db, n)
	case n.Kind == Sort, n.Kind == Materialize:
		return runPassThrough(db, n)
	default:
		return nil, fmt.Errorf("engine: cannot execute node kind %s", n.Kind)
	}
}

// leafProduct computes Π|R| over the node's leaf tables.
func leafProduct(db *DB, n *Node) (float64, error) {
	p := 1.0
	for _, name := range n.LeafTables {
		t, err := db.Table(name)
		if err != nil {
			return 0, err
		}
		p *= float64(t.NumRows())
	}
	return p, nil
}

func runScan(db *DB, n *Node) (*OpResult, error) {
	t, err := db.Table(n.Table)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(n.Preds))
	for i := range n.Preds {
		idx[i] = t.ColIndex(n.Preds[i].Col)
		if idx[i] < 0 {
			return nil, fmt.Errorf("engine: predicate column %q not in table %q", n.Preds[i].Col, n.Table)
		}
	}
	var out [][]int64
	mIndex := 0.0 // tuples satisfying the index (first) predicate
	for _, row := range t.Rows {
		if len(n.Preds) > 0 && !n.Preds[0].Matches(row[idx[0]]) {
			continue
		}
		mIndex++
		ok := true
		for i := 1; i < len(n.Preds); i++ {
			if !n.Preds[i].Matches(row[idx[i]]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, row)
		}
	}
	nrows := float64(t.NumRows())
	if len(n.Preds) == 0 {
		mIndex = nrows
	}
	m := float64(len(out))
	res := &OpResult{
		Node:        n,
		Cols:        t.Cols,
		Rows:        out,
		Nl:          nrows,
		M:           m,
		LeafProduct: nrows,
	}
	if nrows > 0 {
		res.Selectivity = m / nrows
	}
	res.Counts = ScanCounts(n.Kind, nrows, mIndex, len(n.Preds))
	return res, nil
}

// ScanCounts returns the resource counts of a table scan. For sequential
// scans every tuple is read and every predicate of the conjunction is
// evaluated on it; for index scans mIndex tuples satisfy the index
// predicate and are fetched, with the residual predicates evaluated on
// the fetched tuples. The same formulas drive the cost model probes in
// internal/costmodel, so the optimizer's model and the engine agree by
// construction (the residual model error lives in internal/hardware).
func ScanCounts(kind NodeKind, nrows, mIndex float64, numPreds int) Counts {
	switch kind {
	case SeqScan:
		return Counts{
			NS: math.Ceil(nrows / TuplesPerPage),
			NT: nrows,
			NO: nrows * float64(numPreds),
		}
	case IndexScan:
		// Random heap fetches and index-tuple visits proportional to the
		// tuples qualifying under the index predicate (type C2), plus
		// residual predicate evaluations.
		return Counts{
			NR: mIndex,
			NT: mIndex,
			NI: mIndex,
			NO: mIndex * float64(numPreds-1),
		}
	default:
		panic(fmt.Sprintf("engine: ScanCounts on %s", kind))
	}
}

// JoinCounts returns the resource counts of a join given the child input
// cardinalities and the output cardinality.
func JoinCounts(kind NodeKind, nl, nr, m float64) Counts {
	switch kind {
	case HashJoin:
		// Build + probe hashing (no), each input and output tuple
		// touched once (nt): C5'/C6' shapes.
		return Counts{NT: nl + nr + m, NO: nl + nr}
	case MergeJoin:
		// Inputs arrive sorted (Sort children carry that cost); the merge
		// touches each tuple once and compares linearly.
		return Counts{NT: nl + nr + m, NO: nl + nr}
	case NestLoopJoin:
		// The nominal algorithm compares every pair: no = Nl*Nr (C6').
		return Counts{NT: nl + nr + m, NO: nl * nr}
	default:
		panic(fmt.Sprintf("engine: JoinCounts on %s", kind))
	}
}

// UnaryCounts returns the resource counts of Sort, Materialize and
// Aggregate given the input cardinality.
func UnaryCounts(kind NodeKind, nl float64) Counts {
	switch kind {
	case Sort:
		logn := math.Log2(math.Max(nl, 2))
		return Counts{NT: nl, NO: nl * logn}
	case Materialize:
		return Counts{NT: nl}
	case Aggregate:
		return Counts{NT: nl, NO: 2 * nl}
	default:
		panic(fmt.Sprintf("engine: UnaryCounts on %s", kind))
	}
}

func runJoin(db *DB, n *Node) (*OpResult, error) {
	left, err := runNode(db, n.Left)
	if err != nil {
		return nil, err
	}
	right, err := runNode(db, n.Right)
	if err != nil {
		return nil, err
	}
	li := slices.Index(left.Cols, n.LeftCol)
	ri := slices.Index(right.Cols, n.RightCol)
	if li < 0 || ri < 0 {
		return nil, fmt.Errorf("engine: join columns %q/%q not found", n.LeftCol, n.RightCol)
	}

	// Hash join on the smaller side regardless of the nominal algorithm.
	rows := hashEquiJoin(left.Rows, right.Rows, li, ri)

	lp, err := leafProduct(db, n)
	if err != nil {
		return nil, err
	}
	res := &OpResult{
		Node:        n,
		Cols:        append(append([]string{}, left.Cols...), right.Cols...),
		Rows:        rows,
		Nl:          left.M,
		Nr:          right.M,
		M:           float64(len(rows)),
		LeafProduct: lp,
		Left:        left,
		Right:       right,
	}
	if lp > 0 {
		res.Selectivity = res.M / lp
	}
	res.Counts = JoinCounts(n.Kind, left.M, right.M, res.M)
	return res, nil
}

// hashEquiJoin joins two row sets on the given column indices,
// concatenating matching rows.
func hashEquiJoin(lrows, rrows [][]int64, li, ri int) [][]int64 {
	// Build on the smaller input.
	if len(lrows) <= len(rrows) {
		ht := make(map[int64][][]int64, len(lrows))
		for _, lr := range lrows {
			ht[lr[li]] = append(ht[lr[li]], lr)
		}
		var out [][]int64
		for _, rr := range rrows {
			for _, lr := range ht[rr[ri]] {
				out = append(out, concatRows(lr, rr))
			}
		}
		return out
	}
	ht := make(map[int64][][]int64, len(rrows))
	for _, rr := range rrows {
		ht[rr[ri]] = append(ht[rr[ri]], rr)
	}
	var out [][]int64
	for _, lr := range lrows {
		for _, rr := range ht[lr[li]] {
			out = append(out, concatRows(lr, rr))
		}
	}
	return out
}

func concatRows(a, b []int64) []int64 {
	out := make([]int64, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func runPassThrough(db *DB, n *Node) (*OpResult, error) {
	child, err := runNode(db, n.Left)
	if err != nil {
		return nil, err
	}
	res := &OpResult{
		Node:        n,
		Cols:        child.Cols,
		Rows:        child.Rows,
		Nl:          child.M,
		M:           child.M,
		LeafProduct: child.LeafProduct,
		Selectivity: child.Selectivity,
		Left:        child,
	}
	res.Counts = UnaryCounts(n.Kind, child.M)
	return res, nil
}

func runAggregate(db *DB, n *Node) (*OpResult, error) {
	child, err := runNode(db, n.Left)
	if err != nil {
		return nil, err
	}
	var rows [][]int64
	if n.GroupCol == "" {
		// Scalar aggregate: COUNT(*) over the input.
		rows = [][]int64{{int64(len(child.Rows))}}
	} else {
		gi := slices.Index(child.Cols, n.GroupCol)
		if gi < 0 {
			return nil, fmt.Errorf("engine: group column %q not found", n.GroupCol)
		}
		counts := make(map[int64]int64)
		for _, r := range child.Rows {
			counts[r[gi]]++
		}
		for k, v := range counts {
			rows = append(rows, []int64{k, v})
		}
	}
	lp, err := leafProduct(db, n)
	if err != nil {
		return nil, err
	}
	res := &OpResult{
		Node:        n,
		Cols:        []string{"group", "count"},
		Rows:        rows,
		Nl:          child.M,
		M:           float64(len(rows)),
		LeafProduct: lp,
		Left:        child,
	}
	if lp > 0 {
		res.Selectivity = res.M / lp
	}
	res.Counts = UnaryCounts(Aggregate, child.M)
	return res, nil
}
