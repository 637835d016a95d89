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
// never in row order. So a join hashes whichever side has fewer rows and
// emits matches in chain order without moving a bit of any estimate.
//
// Almost every probe misses, so a miss costs one hash and one bit test:
// the build also sets one bit per key's hash prefix in a pooled filter of
// ~32 bits per build row, a probe key whose bit is clear skips the table,
// and the fill walks only the (probe row, chain head) hits. The variance
// tally adds a precomputed rho^2 for each sample tuple no output row
// names — bit for bit the d*d it stands for.

import (
	"context"
	"fmt"
	"math/bits"
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
// supplies it and that leaf's column, exactly as a lookup over the
// concatenated column lists would: the first leaf, left to right, that
// carries the name. The ordinal is -1 when no leaf does.
func (p *Pass) column(name string) (col []int64, ord int) {
	for o, t := range p.leaves {
		if i := slices.Index(t.cols, name); i >= 0 {
			return t.data[i], o
		}
	}
	return nil, -1
}

// PassMemo memoizes subtree passes by key: return the cached Pass for
// key, or compute, retain, and return it. Implementations own
// concurrency (the walk is sequential per plan, but several plans may
// estimate at once). A nil PassMemo disables memoization.
type PassMemo func(key string, compute func() (*Pass, error)) (*Pass, error)

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
				if t.Base == n.Table {
					uses++
				}
			}
			ci := uses % len(copies)
			if copies[ci].N() == 0 {
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
				return scanPass(n, leafTable[off], cat)
			case n.Kind.IsJoin() && (left.tainted || right.tainted):
				return optimizerPass(n, k, engine.Counts{}, cat)
			case n.Kind.IsJoin():
				return joinPass(n, left, right, cat)
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
			EstCard:       card,
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
	slots  []slot   // the join's open-addressed hash table
	next   []int32  // build row -> 1 + the previous build row with the same key; 0 ends the chain
	filter []uint64 // the join's probe filter: bit h>>fshift set for the hash h of every build key
	match  []int32  // a join's hits as (probe row, chain head) pairs; a scan's selection vector
	q      []int32  // Q_{k,j} tallies of one leaf
}

// slot is one entry of the join hash table: a key, the chain of build
// rows holding it (head is 1 + the last such row, 0 marks a free slot)
// and the chain's length.
type slot struct {
	key       int64
	head, cnt int32
}

// fib is the Fibonacci hash of a join key. The slot of a key is the
// product's top bits, its probe-filter bit a longer prefix of the same.
func fib(key int64) uint64 { return uint64(key) * 0x9E3779B97F4A7C15 }

// find returns the slot holding key, or the free slot where it belongs,
// starting from the key's home slot s in a power-of-two table that
// always has a free slot, then probing linearly.
func find(slots []slot, s int, key int64) *slot {
	for mask := len(slots) - 1; slots[s].head != 0 && slots[s].key != key; {
		s = (s + 1) & mask
	}
	return &slots[s]
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
// (the scan is leaf ordinal 0 of its own subtree), a predicate at a time
// over one column each.
func scanPass(n *engine.Node, st *Table, cat *catalog.Catalog) (*Pass, error) {
	nTotal := st.N()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.match = grow(sc.match, nTotal)
	// sel is the selection vector: every tuple until a predicate has
	// spoken, then what the predicates so far let through, filtered a
	// column at a time (in place from the second predicate on). mIndex
	// counts what the leading predicate lets through — the tuples an
	// index scan on it would fetch.
	sel, mIndex := st.all, nTotal
	for pi := range n.Preds {
		pred := &n.Preds[pi]
		ci := slices.Index(st.cols, pred.Col)
		if ci < 0 {
			return nil, fmt.Errorf("sample: predicate column %q not in %q", pred.Col, n.Table)
		}
		col, m := st.data[ci], 0
		for _, i := range sel {
			sc.match[m] = i
			if pred.Matches(col[i]) {
				m++
			}
		}
		sel = sc.match[:m]
		if pi == 0 {
			mIndex = m
		}
	}
	// The Pass keeps an exactly-sized block of its own — or, when every
	// tuple survives unasked, the table's immutable identity block.
	prov := sel
	if len(n.Preds) > 0 {
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
	full, err := cat.FullSize(n)
	if err != nil {
		return nil, err
	}
	return &Pass{
		prov:      prov,
		leaves:    []*Table{st},
		numLeaves: 1,
		est: OpEstimate{
			Rho:          rho,
			Var:          v,
			LeafComp:     []float64{v},
			LeafN:        []int{nTotal},
			EstCard:      rho * full,
			SampleCounts: engine.ScanCounts(n.Kind, float64(nTotal), float64(mIndex), len(n.Preds)),
		},
	}, nil
}

// joinPass joins two child passes in the local frame: the left child
// keeps ordinals 0..nl-1, the right child's shift up by nl, so local
// ordinal and provenance position coincide (Algorithm 1 lines 11-13 and
// the Appendix A.7 components).
func joinPass(n *engine.Node, left, right *Pass, cat *catalog.Catalog) (*Pass, error) {
	lcol, lord := left.column(n.LeftCol)
	rcol, rord := right.column(n.RightCol)
	if lord < 0 || rord < 0 {
		return nil, fmt.Errorf("sample: join columns %q/%q not found", n.LeftCol, n.RightCol)
	}
	nl, k := left.numLeaves, left.numLeaves+right.numLeaves

	// The hash table is built over the side with fewer rows. at is where
	// a side's provenance lands in an output row, whichever role it plays.
	type side struct {
		prov    []int32
		stride  int
		rows    int
		col     []int64 // the join column of leaf ord
		ord, at int
	}
	build := side{left.prov, nl, left.rows(), lcol, lord, 0}
	probe := side{right.prov, k - nl, right.rows(), rcol, rord, nl}
	if probe.rows < build.rows {
		build, probe = probe, build
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Build: an open-addressed key -> chain-head table at load <= 1/2,
	// linear probing, the rows of one key chained through next; and the
	// probe filter, 16 bits per slot (at least 64), one per hash prefix.
	logSize := bits.Len(uint(2 * build.rows))
	shift, fshift := uint(64-logSize), uint(64-max(logSize+4, 6))
	sc.slots = grow(sc.slots, 1<<logSize)
	clear(sc.slots)
	sc.filter = grow(sc.filter, 1<<max(logSize-2, 0))
	clear(sc.filter)
	sc.next = grow(sc.next, build.rows)
	slots, filter, next := sc.slots, sc.filter, sc.next
	for b := 0; b < build.rows; b++ {
		key := build.col[build.prov[b*build.stride+build.ord]]
		h := fib(key)
		filter[h>>fshift>>6] |= 1 << (h >> fshift & 63)
		e := find(slots, int(h>>shift), key)
		e.key = key
		next[b], e.head = e.head, int32(b+1)
		e.cnt++
	}

	// Count: only probe keys whose filter bit is set are looked up, and
	// only hits are kept, as (probe row, chain head) in probe order.
	hits := sc.match[:0]
	nOut := 0
	for r := 0; r < probe.rows; r++ {
		key := probe.col[probe.prov[r*probe.stride+probe.ord]]
		h := fib(key)
		if filter[h>>fshift>>6]&(1<<(h>>fshift&63)) == 0 {
			continue
		}
		if e := find(slots, int(h>>shift), key); e.head != 0 {
			hits = append(hits, int32(r), e.head)
			nOut += int(e.cnt)
		}
	}
	sc.match = hits

	// Fill: one exactly-sized block, left provenance then right, the hits
	// in probe order and each one's build rows in chain order.
	out := make([]int32, nOut*k)
	w := 0
	for i := 0; i < len(hits); i += 2 {
		r := int(hits[i])
		pp := probe.prov[r*probe.stride : (r+1)*probe.stride]
		for b := hits[i+1]; b != 0; b = next[b-1] {
			row := out[w : w+k]
			copy(row[build.at:], build.prov[int(b-1)*build.stride:int(b)*build.stride])
			copy(row[probe.at:], pp)
			w += k
		}
	}

	leaves := append(append(make([]*Table, 0, k), left.leaves...), right.leaves...)
	leafN := make([]int, k)
	// rho_n = |out| / Pi_k n_k, accumulated in left-to-right leaf order.
	prodN := 1.0
	for o, t := range leaves {
		leafN[o] = t.N()
		prodN *= float64(t.N())
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
			// Q_{k,j,n} accumulation (Algorithm 1 lines 11-13): one scan
			// of the join result, incrementing a dense counter per sample
			// tuple of the leaf, indexed by provenance (position o is
			// local ordinal o; the sample-tuple index is always in
			// [0, n_k) — tainted subtrees never reach joinPass). The
			// counters are integers, so the order of this scan is
			// immaterial; the float sum below runs over them in
			// sample-index order — summing in row or map order would
			// reorder the float additions and break the byte-identical
			// determinism contract.
			sc.q = grow(sc.q, t.N())
			clear(sc.q)
			for i := o; i < len(out); i += k {
				sc.q[out[i]]++
			}
			// Per-leaf variance component: V_k = (1/(n_k-1)) sum_j
			// (Q_{k,j}/prod_{k'!=k} n_{k'} - rho)^2, W_k = V_k / n_k.
			// Tuples j with Q_{k,j} = 0 — almost all of them — contribute
			// d = 0/denom - rho = -rho, i.e. exactly rho^2: added without
			// the division, at the same place in the same sum.
			nk := float64(t.N())
			denom, rr := prodN/nk, rho*rho
			var ss float64
			for _, q := range sc.q {
				if q == 0 {
					ss += rr
					continue
				}
				d := float64(q)/denom - rho
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
	}

	full, err := cat.FullSize(n)
	if err != nil {
		return nil, err
	}

	return &Pass{
		prov:      out,
		leaves:    leaves,
		numLeaves: k,
		est: OpEstimate{
			Rho:      rho,
			Var:      totalVar,
			LeafComp: leafComp,
			LeafN:    leafN,
			EstCard:  rho * full,
			SampleCounts: engine.JoinCounts(n.Kind,
				float64(left.rows()), float64(right.rows()), float64(nOut)),
		},
	}, nil
}
