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
// 0..numLeaves-1 left to right and sample-tuple provenance is
// positional, so nothing in the cached value depends on where the
// subtree sits in the enclosing plan. A subtree's leaves are one
// contiguous run of the plan's leaf ordinals, so splicing a Pass into a
// plan's Estimates copies its root estimate and sets one integer — the
// run's offset — while the per-leaf slices stay the Pass's own, shared by
// every plan that holds the subtree. Only the sample-copy assignment —
// made globally, in left-to-right plan order — enters the cache key, so
// a memoized Pass carries exactly the numbers a fresh one would.
//
// Provenance is the row. A surviving sample tuple's values are a pure
// function of its provenance (a joined tuple is the concatenation of the
// leaf sample tuples its provenance names), so a Pass keeps no values:
// one flat []int32 block of provenance, stride numLeaves, and the sample
// tables of its leaves. Join keys are fetched late, through the (leaf,
// column) a name resolves to. The block holds no pointers, so what a
// memo retains is memory the collector never scans.
//
// Row order inside a Pass is free: every float the pass emits is
// computed from integer counts over the result multiset (|out|, the
// Q_{k,j} tallies) and summed in leaf-ordinal / sample-index order,
// never in row order. So a join may iterate either side and emit its
// matches in lookup order without moving a bit of any estimate.
//
// A join iterates one side and looks its keys up in a key index of the
// other, almost always one leaf — a scan, or a unary over one, as every
// right child of a left-deep plan is — whose rows are sample tuples of
// one table. Each sample table keeps an immutable key index per join
// column, built on first use, from a key to its ascending sample indices;
// a run's tuples count as often as the side holds them (not counted at
// all for a scan that keeps every tuple). Only a join of two multi-leaf
// sides builds such an index per call, over its smaller side.
// The variance tally reads only the nonzero Q_{k,j}, the leaf's column of
// the result sorted into runs; the rho^2 of each sample tuple no output
// row names is added a gap at a time by addRepeated — bit for bit the
// sequential adds it stands for.
//
// Fixed work is done once. A scan runs the executor's filter kernel
// (engine.Table.Filter): a predicate is one inclusive range, a tuple one
// unsigned compare against it, and the leading predicate reads its
// column without the identity vector; a memo key reads the signature its
// node stored at Finalize (Node.Sig).

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// Pass is the sampling computation of one plan subtree in the subtree's
// local leaf frame. It is immutable once computed and may be shared by
// any number of plans and goroutines.
type Pass struct {
	// prov holds the surviving sample tuples as provenance alone: row r
	// is prov[r*numLeaves : (r+1)*numLeaves], entry o the index of the
	// sample tuple of local leaf o that produced it. Allocated exactly,
	// owned by the Pass, never pooled.
	prov []int32
	// leaves are the sample tables of the local leaves, left to right.
	leaves    []*Table
	numLeaves int
	// tainted marks the region at and above an aggregate (the Agg flag
	// of Algorithm 1), where sampling no longer applies: prov and leaves
	// are nil and est carries the optimizer's fallback numbers.
	tainted bool
	// est is the subtree root's estimate in the local frame: LeafOff is 0
	// and is the one field a plan overwrites in its copy.
	est OpEstimate
}

// rows returns the number of surviving sample tuples (0 when tainted).
func (p *Pass) rows() int { return len(p.prov) / p.numLeaves }

// column resolves an output column of the subtree to the leaf that
// supplies it — its sample table t, the column's index c in t and the
// leaf's ordinal — exactly as a lookup over the concatenated column
// lists would: the first leaf, left to right, that carries the name. The
// ordinal is -1 when no leaf does.
func (p *Pass) column(name string) (t *Table, c, ord int) {
	for o, t := range p.leaves {
		if c := t.ColIndex(name); c >= 0 {
			return t, c, o
		}
	}
	return nil, -1, -1
}

// identity reports whether the pass keeps every tuple of its one leaf's
// sample in order: its provenance is the table's identity block.
func (p *Pass) identity() bool {
	all := p.leaves[0].all
	return p.numLeaves == 1 && len(p.prov) == len(all) && (len(all) == 0 || &p.prov[0] == &all[0])
}

// PassMemo memoizes subtree passes by key: return the cached Pass for
// key, or compute, retain, and return it. Implementations own
// concurrency (the walk is sequential per plan, but several plans may
// estimate at once). A nil PassMemo disables memoization.
type PassMemo func(key string, compute func() (*Pass, error)) (*Pass, error)

// passKey renders the memo key of a subtree: its canonical signature
// (operators, predicates, join order — the same rendering whole-plan
// memo keys use, stored on the node at Finalize) plus the sample-copy
// index assigned to each leaf, so a subtree evaluated against different
// sample copies never aliases. The key is its one allocation.
func passKey(n *engine.Node, copies []int) string {
	const sep = "\x00copies="
	var b strings.Builder
	b.Grow(len(n.Sig) + len(sep) + 4*len(copies)) // a comma and up to three digits a copy
	b.WriteString(n.Sig)
	b.WriteString(sep)
	for i, c := range copies {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
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
	if memo == nil {
		memo = func(_ string, compute func() (*Pass, error)) (*Pass, error) { return compute() }
	}
	if ctx == nil {
		ctx = context.Background()
	}
	est := newEstimates(root)

	// Pre-pass: assign each scan its sample copy in left-to-right plan
	// order, each further appearance of a relation taking the next copy.
	// Both slices are indexed by global leaf ordinal; a subtree's leaves
	// are contiguous in them, starting at the offset the walk threads.
	var leafTable []*Table
	var leafCopy []int
	var assign func(n *engine.Node) error
	assign = func(n *engine.Node) error {
		if n == nil {
			return nil
		}
		if n.Kind.IsScan() {
			copies := sdb.Copies[n.Table]
			if len(copies) == 0 {
				return fmt.Errorf("sample: no sample tables for %q", n.Table)
			}
			uses := 0
			for _, t := range leafTable {
				if t.Name == n.Table {
					uses++
				}
			}
			ci := uses % len(copies)
			if copies[ci].NumRows() == 0 {
				return fmt.Errorf("sample: relation %q has an empty sample", n.Table)
			}
			leafTable = append(leafTable, copies[ci])
			leafCopy = append(leafCopy, ci)
			return nil
		}
		if err := assign(n.Left); err != nil {
			return err
		}
		return assign(n.Right)
	}
	if err := assign(root); err != nil {
		return nil, err
	}

	// Bottom-up walk; off is the global ordinal of the subtree's leftmost
	// leaf. At and above an aggregate (the Agg flag of Algorithm 1) a Pass
	// is tainted and carries the optimizer's numbers; it memoizes like any
	// other, so a warm pass over sorts or aggregates recomputes nothing.
	var walk func(n *engine.Node, off int) (*Pass, error)
	walk = func(n *engine.Node, off int) (*Pass, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var left, right *Pass
		k := 1
		if !n.Kind.IsScan() {
			var err error
			if left, err = walk(n.Left, off); err != nil {
				return nil, err
			}
			k = left.numLeaves
			if n.Kind.IsJoin() {
				if right, err = walk(n.Right, off+k); err != nil {
					return nil, err
				}
				k += right.numLeaves
			}
		}
		p, err := memo(passKey(n, leafCopy[off:off+k]), func() (*Pass, error) {
			switch {
			case n.Kind.IsScan():
				return scanPass(n, leafTable[off])
			case n.Kind.IsJoin() && (left.tainted || right.tainted):
				return optimizerPass(n, k, engine.Counts{}, cat)
			case n.Kind.IsJoin():
				return joinPass(n, left, right)
			case n.Kind == engine.Aggregate:
				return optimizerPass(n, k, engine.UnaryCounts(n.Kind, float64(left.rows())), cat)
			default: // Sort, Materialize: pass-through, same selectivity variable
				return unaryPass(n, left), nil
			}
		})
		if err != nil {
			return nil, err
		}
		// Splice: the Pass's root estimate, its leaf run starting at off.
		op, err := est.Get(n)
		if err != nil {
			return nil, err
		}
		*op = p.est
		op.LeafOff = off
		return p, nil
	}
	if _, err := walk(root, 0); err != nil {
		return nil, err
	}
	return est, nil
}

// optimizerPass builds the Pass of an aggregate — the node that taints
// everything above it — or of a join above one: the optimizer's
// cardinality over the operator's full size (Algorithm 1 lines 3-5),
// zero variance, an empty leaf run and counts as the sample work.
func optimizerPass(n *engine.Node, numLeaves int, counts engine.Counts, cat *catalog.Catalog) (*Pass, error) {
	full, err := cat.FullSize(n)
	if err != nil {
		return nil, err
	}
	card, err := cat.Cardinality(n)
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
			SampleCounts:  counts,
		},
	}, nil
}

// unaryPass builds the Pass of a Sort or Materialize: the child's rows
// and estimate pass through unchanged — same selectivity variable, same
// leaf components, same taint — with only the operator's own unary work
// added to the sample counts.
func unaryPass(n *engine.Node, child *Pass) *Pass {
	p := *child
	p.est.SampleCounts = engine.UnaryCounts(n.Kind, float64(child.rows()))
	return &p
}

// scratch is the working memory of one scan or join: nothing in it
// outlives the call that took it from the pool, and nothing a Pass
// keeps is ever carved from it.
type scratch struct {
	ix    keyIndex // a join's per-call index, when neither side is one leaf
	keys  []int64  // the join keys that index is built from
	match []int32  // a join's hits as (outer row, run) triples; a scan's selection vector
	mult  []int32  // per sample tuple: how often the looked-up side holds it
	ids   []int32  // one leaf's column of a join's result, sorted into runs
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns s resized to n elements, reallocating only when its
// capacity falls short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// scanPass evaluates one scan over its sample table in the local frame
// (the scan is leaf ordinal 0 of its own subtree) through the executor's
// filter kernel. mIndex counts what the leading predicate lets through —
// the tuples an index scan on it would fetch.
func scanPass(n *engine.Node, st *Table) (*Pass, error) {
	nTotal := st.NumRows()
	// The Pass keeps an exactly-sized block of its own — or, when every
	// tuple survives unasked, the table's immutable identity block.
	prov, mIndex := st.all, nTotal
	if len(n.Preds) > 0 {
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		sel, m, err := st.Filter(n.Preds, sc.match)
		if err != nil {
			return nil, err
		}
		sc.match, mIndex = sel, m
		prov = make([]int32, len(sel))
		copy(prov, sel)
	}

	rho := float64(len(prov)) / float64(nTotal)
	// S^2_n = rho(1-rho) for a selection; sigma_n^2 = S^2_n / n.
	v := rho * (1 - rho) / float64(nTotal)
	// Floor an all-miss sample at half an observation with 100% relative
	// uncertainty; a hard zero would make downstream costs degenerate.
	if len(prov) == 0 {
		rho = 0.5 / float64(nTotal)
		v = rho * rho
	}
	return &Pass{
		prov:      prov,
		leaves:    []*Table{st},
		numLeaves: 1,
		est: OpEstimate{
			Rho:          rho,
			Var:          v,
			LeafComp:     []float64{v},
			SampleCounts: engine.ScanCounts(n.Kind, float64(nTotal), float64(mIndex), len(n.Preds)),
		},
	}, nil
}

// lookupRight reports which input of a join is looked up, the other
// being iterated: a side of one leaf, whose table's key index serves
// the lookups; of two such, the one with more rows; of two sides of
// several leaves, the one with fewer rows, indexed per call.
func lookupRight(left, right *Pass) bool {
	l, r := left.numLeaves == 1, right.numLeaves == 1
	switch {
	case l != r:
		return r
	case l:
		return right.rows() >= left.rows()
	}
	return right.rows() < left.rows()
}

// joinPass joins two child passes in the local frame: the left child
// keeps ordinals 0..nl-1, the right child's shift up by nl, so local
// ordinal and provenance position coincide (Algorithm 1 lines 11-13 and
// the Appendix A.7 components).
func joinPass(n *engine.Node, left, right *Pass) (*Pass, error) {
	lt, lc, lord := left.column(n.LeftCol)
	rt, rc, rord := right.column(n.RightCol)
	if lord < 0 || rord < 0 {
		return nil, fmt.Errorf("sample: join columns %q/%q not found", n.LeftCol, n.RightCol)
	}
	nl, k := left.numLeaves, left.numLeaves+right.numLeaves

	// One side is iterated, the other looked up. block holds a side's
	// rows at stride — for a looked-up side, in the positions its index
	// runs name — and at is where they land in an output row.
	type side struct {
		p      *Pass
		block  []int32
		stride int
		t      *Table
		c, ord int // the join column, in table t, of leaf ord
		at     int
	}
	outer := side{left, left.prov, nl, lt, lc, lord, 0}
	inner := side{right, right.prov, k - nl, rt, rc, rord, nl}
	if !lookupRight(left, right) {
		outer, inner = inner, outer
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// The index's runs name sample tuples of the inner side's one leaf —
	// its rows are the table's rows, each as often as the side holds it
	// (mult nil: exactly once) — or, indexed here, rows of the inner side.
	var ix *keyIndex
	var mult []int32
	if inner.p.numLeaves == 1 {
		ix = inner.t.index(inner.c)
		if !inner.p.identity() {
			sc.mult = grow(sc.mult, inner.t.NumRows())
			mult = sc.mult
			clear(mult)
			for _, j := range inner.block {
				mult[j]++
			}
		}
		inner.block, inner.stride = inner.t.all, 1
	} else {
		col := inner.t.Data[inner.c]
		sc.keys = grow(sc.keys, inner.p.rows())
		for r := range sc.keys {
			sc.keys[r] = col[inner.block[r*inner.stride+inner.ord]]
		}
		ix = &sc.ix
		ix.build(sc.keys)
	}

	// Count: each outer row's key looked up once; the hits are kept as
	// (outer row, run) triples, in outer order.
	col := outer.t.Data[outer.c]
	hits := sc.match[:0]
	nOut := 0
	for r := 0; r < outer.p.rows(); r++ {
		lo, hi := ix.run(col[outer.block[r*outer.stride+outer.ord]])
		if lo == hi {
			continue
		}
		if mult == nil {
			nOut += int(hi - lo)
		} else {
			for _, j := range ix.idx[lo:hi] {
				nOut += int(mult[j])
			}
		}
		hits = append(hits, int32(r), lo, hi)
	}
	sc.match = hits

	// Fill: one exactly-sized block, left provenance then right, the hits
	// in outer order and each one's inner rows in run order.
	out := make([]int32, nOut*k)
	w := 0
	for i := 0; i < len(hits); i += 3 {
		r := int(hits[i])
		op := outer.block[r*outer.stride : (r+1)*outer.stride]
		for _, j := range ix.idx[hits[i+1]:hits[i+2]] {
			ip := inner.block[int(j)*inner.stride : int(j+1)*inner.stride]
			times := int32(1)
			if mult != nil {
				times = mult[j]
			}
			for ; times > 0; times-- {
				row := out[w : w+k]
				copy(row[outer.at:], op)
				copy(row[inner.at:], ip)
				w += k
			}
		}
	}

	leaves := append(append(make([]*Table, 0, k), left.leaves...), right.leaves...)
	// rho_n = |out| / Pi_k n_k, accumulated in left-to-right leaf order.
	prodN := 1.0
	for _, t := range leaves {
		prodN *= float64(t.NumRows())
	}
	rho := float64(nOut) / prodN

	leafComp := make([]float64, k)
	var totalVar float64
	// Guard against empty sample joins: the estimator would report a
	// zero selectivity with zero variance, which is overconfident. Use
	// half an observation — the sample's resolution limit — with 100%
	// relative uncertainty, spread evenly over the leaves. This
	// deliberately overestimates very small selectivities and flags them
	// with a correspondingly large sigma: the estimator knows that it
	// cannot resolve the value, which is exactly the self-awareness the
	// predictor propagates. (The paper never hits this regime: its
	// absolute sample sizes are in the tens of thousands even at
	// SR = 0.01.) The floor sets every number the tally would, so an
	// empty join tallies nothing.
	if nOut == 0 {
		rho = 0.5 / prodN
		totalVar = rho * rho
		for o := range leafComp {
			leafComp[o] = totalVar / float64(k)
		}
	} else {
		for o, t := range leaves {
			// Q_{k,j,n} accumulation (Algorithm 1 lines 11-13): the
			// leaf's column of the join result (position o is local
			// ordinal o; the sample-tuple index is always in [0, n_k) —
			// tainted subtrees never reach joinPass), sorted, so that
			// each run is one sample tuple j and its length Q_{k,j}. The
			// tallies are integers, so row order is immaterial; the float
			// sum below runs over them in sample-index order — summing in
			// row or map order would reorder the float additions and
			// break the byte-identical determinism contract.
			ids := grow(sc.ids, nOut)
			sc.ids = ids
			for i, r := o, 0; i < len(out); i, r = i+k, r+1 {
				ids[r] = out[i]
			}
			slices.Sort(ids)
			// Per-leaf variance component: V_k = (1/(n_k-1)) sum_j
			// (Q_{k,j}/prod_{k'!=k} n_{k'} - rho)^2, W_k = V_k / n_k.
			// Tuples j with Q_{k,j} = 0 — almost all of them — contribute
			// d = 0/denom - rho = -rho, i.e. exactly rho^2: each gap
			// between runs is added by addRepeated, bit for bit the
			// sequential adds, at the same place in the same sum.
			nk := float64(t.NumRows())
			denom, rr := prodN/nk, rho*rho
			var ss float64
			next := 0 // the first sample index not yet summed
			for lo := 0; lo < len(ids); {
				j, hi := ids[lo], lo+1
				for hi < len(ids) && ids[hi] == j {
					hi++
				}
				ss = addRepeated(ss, rr, int(j)-next)
				d := float64(hi-lo)/denom - rho
				ss += d * d
				next, lo = int(j)+1, hi
			}
			ss = addRepeated(ss, rr, t.NumRows()-next)
			vk := 0.0
			if nk > 1 {
				vk = ss / (nk - 1)
			}
			wk := vk / nk
			leafComp[o] = wk
			totalVar += wk
		}
	}

	return &Pass{
		prov:      out,
		leaves:    leaves,
		numLeaves: k,
		est: OpEstimate{
			Rho:      rho,
			Var:      totalVar,
			LeafComp: leafComp,
			SampleCounts: engine.JoinCounts(n.Kind,
				float64(left.rows()), float64(right.rows()), float64(nOut)),
		},
	}, nil
}

// addRepeated returns s after m sequential additions s += x, bit for bit,
// for non-negative s and x, in O(binades crossed) additions. Inside one
// binade every sum rounds on the same grid of ulps, so an addition that
// starts and ends there moves s by whole ulps, and the ties-to-even rule
// leaves s even whenever x sits on a half ulp. After one such addition
// has settled that parity, the next one's increment — exact, by Sterbenz
// — repeats until an addition would leave the binade: those steps are
// taken at once, on the bits, where a step counts ulps.
func addRepeated(s, x float64, m int) float64 {
	for m > 0 {
		t := s + x
		m--
		if t == s {
			return s // no addition moves s any more
		}
		sb, tb := math.Float64bits(s), math.Float64bits(t)
		if m == 0 || tb>>52 != sb>>52 {
			s = t // a crossing settles nothing
			continue
		}
		s = t + x
		m--
		nb := math.Float64bits(s)
		if nb>>52 != tb>>52 || nb == tb {
			continue
		}
		// Steps of c ulps stay strictly inside while nb + j*c < end.
		c, end := nb-tb, (tb>>52+1)<<52
		j := min(uint64(m), (end-1-nb)/c)
		s = math.Float64frombits(nb + j*c)
		m -= int(j)
	}
	return s
}
