package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
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

// OpResult holds one operator's execution outcome: its true input and
// output cardinalities, selectivity X = M / Π|R| (Equation 3), and
// resource counts. It holds no rows: the output relation lives only
// while the operator's parent reads it.
type OpResult struct {
	Node *Node

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
	res, _, err := run(db, root, false)
	return res, err
}

// relation is an operator's output as provenance: the tables of its
// leaves, left to right, and one flat block of row indices, stride
// len(leaves). Row r is prov[r*k : (r+1)*k], entry o the index of the
// row of leaves[o] that produced it. A joined tuple is the
// concatenation of the leaf rows its provenance names, so none is ever
// built: a column is read late, through the (leaf, column) its name
// resolves to. An aggregate's output is a one-leaf relation over a small
// table of its own.
type relation struct {
	leaves []*Table
	prov   []int32
}

// keyed is a relation with one column resolved for hashing: the key of
// row r is col[prov[r*stride+ord]], col a column of leaf ord.
type keyed struct {
	prov         []int32
	stride, rows int
	col          []int64
	ord          int
}

// resolve keys the relation on the named column, found exactly as a
// lookup over the concatenated column lists would find it: in the first
// leaf, left to right, that carries the name. It reports false when no
// leaf does.
func (r *relation) resolve(name string) (keyed, bool) {
	for o, t := range r.leaves {
		if ci := t.ColIndex(name); ci >= 0 {
			return keyed{r.prov, len(r.leaves), len(r.prov) / len(r.leaves), t.Data[ci], o}, true
		}
	}
	return keyed{}, false
}

func (k *keyed) key(r int) int64 { return k.col[k.prov[r*k.stride+k.ord]] }

// scratch is the working memory of one scan, join or aggregate: nothing
// in it outlives the call that took it from the pool.
type scratch struct {
	slots []Slot  // the join's or aggregate's hash table
	next  []int32 // build row -> 1 + the previous build row with the same key; 0 ends the chain
	sel   []int32 // a scan's selection vector; a join's hits as (probe row, chain head) pairs
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// build hashes every row of k into the table at load <= 1/2, the rows
// of one key chained through next, and returns the shift that takes a
// key's Fib to its home slot.
func (sc *scratch) build(k *keyed) uint {
	logSize := bits.Len(uint(2 * k.rows))
	sc.slots = grow(sc.slots, 1<<logSize)
	clear(sc.slots)
	sc.next = grow(sc.next, k.rows)
	slots, next, shift := sc.slots, sc.next, uint(64-logSize)
	for b := range next {
		key := k.key(b)
		e := Find(slots, int(Fib(key)>>shift), key)
		e.Key = key
		next[b], e.Head = e.Head, int32(b+1)
		e.Cnt++
	}
	return shift
}

// run executes the subtree at n. When keep is set it also returns the
// operator's output relation, which only a parent that reads rows asks
// for: the root's is never built, so a plan's topmost join only counts.
func run(db *DB, n *Node, keep bool) (*OpResult, *relation, error) {
	switch {
	case n.Kind.IsScan():
		return runScan(db, n, keep)
	case n.Kind.IsJoin():
		return runJoin(db, n, keep)
	case n.Kind == Aggregate:
		return runAggregate(db, n, keep)
	case n.Kind == Sort, n.Kind == Materialize:
		child, rel, err := run(db, n.Left, keep)
		if err != nil {
			return nil, nil, err
		}
		return &OpResult{
			Node:        n,
			Nl:          child.M,
			M:           child.M,
			LeafProduct: child.LeafProduct,
			Selectivity: child.Selectivity,
			Counts:      UnaryCounts(n.Kind, child.M),
			Left:        child,
		}, rel, nil
	default:
		return nil, nil, fmt.Errorf("engine: cannot execute node kind %s", n.Kind)
	}
}

// setLeafProduct sets a join's or aggregate's Π|R| over its node's leaf
// tables and its selectivity X = M / Π|R|.
func setLeafProduct(db *DB, res *OpResult) error {
	res.LeafProduct = 1
	for _, name := range res.Node.LeafTables {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		res.LeafProduct *= float64(t.NumRows())
	}
	if res.LeafProduct > 0 {
		res.Selectivity = res.M / res.LeafProduct
	}
	return nil
}

// runScan filters the table through Filter into the pooled selection
// vector; a parent that reads rows gets a copy of it as provenance.
func runScan(db *DB, n *Node, keep bool) (*OpResult, *relation, error) {
	t, err := db.Table(n.Table)
	if err != nil {
		return nil, nil, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sel, mIndex, err := t.Filter(n.Preds, sc.sel)
	if err != nil {
		return nil, nil, err
	}
	sc.sel = sel
	nrows := t.NumRows()
	var rel *relation
	if keep {
		rel = &relation{leaves: []*Table{t}, prov: slices.Clone(sel)}
	}
	res := &OpResult{
		Node:        n,
		Nl:          float64(nrows),
		M:           float64(len(sel)),
		LeafProduct: float64(nrows),
		Counts:      ScanCounts(n.Kind, float64(nrows), float64(mIndex), len(n.Preds)),
	}
	if nrows > 0 {
		res.Selectivity = res.M / res.LeafProduct
	}
	return res, rel, nil
}

// ScanCounts returns the resource counts of a table scan. For sequential
// scans every tuple is read and every predicate of the conjunction is
// evaluated on it; for index scans mIndex tuples satisfy the index
// predicate and are fetched, with the residual predicates evaluated on
// the fetched tuples. internal/costmodel's cost model calls this and the
// other two count functions, so the optimizer's model and the engine
// agree by construction (the residual model error lives in
// internal/hardware) with one difference: the model's sequential-scan
// page count is nrows / TuplesPerPage, not rounded up to whole pages.
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

// runJoin hash-joins the children's relations on the smaller side,
// regardless of the nominal algorithm: it counts the output in a first
// pass and, when the parent reads it, fills one exactly-sized block in
// a second — left provenance then right, whichever side built.
func runJoin(db *DB, n *Node, keep bool) (*OpResult, *relation, error) {
	left, lrel, err := run(db, n.Left, true)
	if err != nil {
		return nil, nil, err
	}
	right, rrel, err := run(db, n.Right, true)
	if err != nil {
		return nil, nil, err
	}
	build, lok := lrel.resolve(n.LeftCol)
	probe, rok := rrel.resolve(n.RightCol)
	if !lok || !rok {
		return nil, nil, fmt.Errorf("engine: join columns %q/%q not found", n.LeftCol, n.RightCol)
	}
	// bat and pat are where the build and probe sides' provenance land
	// in an output row.
	k, bat, pat := build.stride+probe.stride, 0, build.stride
	if probe.rows < build.rows {
		build, probe, bat, pat = probe, build, pat, bat
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	shift := sc.build(&build)
	slots, next, hits := sc.slots, sc.next, sc.sel[:0]
	nOut := 0
	for r := 0; r < probe.rows; r++ {
		key := probe.key(r)
		if e := Find(slots, int(Fib(key)>>shift), key); e.Head != 0 {
			nOut += int(e.Cnt)
			if keep {
				hits = append(hits, int32(r), e.Head)
			}
		}
	}
	sc.sel = hits

	var rel *relation
	if keep {
		out := make([]int32, nOut*k)
		w := 0
		for i := 0; i < len(hits); i += 2 {
			r := int(hits[i])
			pp := probe.prov[r*probe.stride : (r+1)*probe.stride]
			for b := hits[i+1]; b != 0; b = next[b-1] {
				row := out[w : w+k]
				copy(row[bat:], build.prov[int(b-1)*build.stride:int(b)*build.stride])
				copy(row[pat:], pp)
				w += k
			}
		}
		rel = &relation{leaves: append(slices.Clip(lrel.leaves), rrel.leaves...), prov: out}
	}

	res := &OpResult{
		Node:   n,
		Nl:     left.M,
		Nr:     right.M,
		M:      float64(nOut),
		Counts: JoinCounts(n.Kind, left.M, right.M, float64(nOut)),
		Left:   left,
		Right:  right,
	}
	if err := setLeafProduct(db, res); err != nil {
		return nil, nil, err
	}
	return res, rel, nil
}

// runAggregate counts the groups of its input through provenance: a
// scalar aggregate is one group, COUNT(*) over the input; a grouped one
// hashes the group column, one slot per group. When the parent reads
// it, the output is a one-leaf relation over a table of (count) or
// (group, count) rows, the groups in slot order.
func runAggregate(db *DB, n *Node, keep bool) (*OpResult, *relation, error) {
	child, rel, err := run(db, n.Left, n.GroupCol != "")
	if err != nil {
		return nil, nil, err
	}
	var tab *Table
	groups := 1
	if n.GroupCol == "" {
		if keep {
			tab = NewTable("", []string{"count"}, 1)
			tab.Data[0][0] = int64(child.M)
		}
	} else {
		in, ok := rel.resolve(n.GroupCol)
		if !ok {
			return nil, nil, fmt.Errorf("engine: group column %q not found", n.GroupCol)
		}
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		sc.build(&in)
		groups = 0
		for _, e := range sc.slots {
			if e.Head != 0 {
				groups++
			}
		}
		if keep {
			tab = NewTable("", []string{"group", "count"}, groups)
			keys, counts, g := tab.Data[0], tab.Data[1], 0
			for _, e := range sc.slots {
				if e.Head != 0 {
					keys[g], counts[g] = e.Key, int64(e.Cnt)
					g++
				}
			}
		}
	}
	var out *relation
	if keep {
		out = &relation{leaves: []*Table{tab}, prov: make([]int32, groups)}
		for i := range out.prov {
			out.prov[i] = int32(i)
		}
	}
	res := &OpResult{
		Node:   n,
		Nl:     child.M,
		M:      float64(groups),
		Counts: UnaryCounts(Aggregate, child.M),
		Left:   child,
	}
	if err := setLeafProduct(db, res); err != nil {
		return nil, nil, err
	}
	return res, out, nil
}
