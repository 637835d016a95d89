// Package sample implements the sampling-based selectivity estimator of
// Section 3.2 (Haas et al. [25], as adapted in [48]): tuple-level samples
// of every relation are stored offline as sample tables whose tuples
// carry provenance identifiers; one pass of the query plan over the
// samples yields, for every selection and join operator, both the
// selectivity estimate rho_n and its sample variance S^2_n (Algorithm 1),
// plus the per-relation variance components S^2_{n,m} of Appendix A.7
// needed for covariance upper bounds.
package sample

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// Table is a sample of a base relation: an engine.Table of the sampled
// tuples, named after the relation, whose row i is sample tuple i, so
// the provenance identifier of a sample tuple is its row (the paper's
// annotation scheme, akin to data provenance lineage tracking). The
// sampling pass reads it as the executor reads a base table: a scan
// through engine.Table.Filter, a join key by (column, row). Beside the
// immutable rows it keeps what every pass over it shares.
type Table struct {
	*engine.Table
	all []int32 // 0..n-1: the provenance of a scan that keeps every tuple
	// keys[c] is the key index of column c, built on a join's first
	// lookup in that column; a column no join reads never gets one.
	keys []lazyIndex
}

type lazyIndex struct {
	once sync.Once
	ix   keyIndex
}

// newTable wraps the sampled rows t.
func newTable(t *engine.Table) *Table {
	all := make([]int32, t.NumRows())
	for i := range all {
		all[i] = int32(i)
	}
	return &Table{Table: t, all: all, keys: make([]lazyIndex, len(t.Cols))}
}

// index returns the key index of column c, building it on first use.
// It is immutable once built and safe to read from any goroutine.
func (s *Table) index(c int) *keyIndex {
	l := &s.keys[c]
	l.once.Do(func() { l.ix.build(s.Data[c]) })
	return &l.ix
}

// keyIndex maps each distinct key of a column to the ascending positions
// that hold it, laid out over the engine's hash-table kernel: a key's
// slot holds Head = 1 + the offset of its run in idx and Cnt = the run's
// length, at load <= 1/2 with linear probing.
type keyIndex struct {
	slots []engine.Slot
	idx   []int32
	shift uint // takes a key's Fib to its home slot
}

// build indexes keys, position i holding keys[i], reusing the capacity
// ix already has: one pass counts each key's run, a walk over the slots
// lays the runs out, and a second pass fills them in position order.
func (ix *keyIndex) build(keys []int64) {
	logSize := bits.Len(uint(2 * len(keys)))
	ix.shift = uint(64 - logSize)
	ix.slots = grow(ix.slots, 1<<logSize)
	clear(ix.slots)
	for _, key := range keys {
		e := engine.Find(ix.slots, int(engine.Fib(key)>>ix.shift), key)
		e.Key, e.Head = key, 1
		e.Cnt++
	}
	off := int32(0)
	for i := range ix.slots {
		if e := &ix.slots[i]; e.Head != 0 {
			e.Head, off, e.Cnt = 1+off, off+e.Cnt, 0
		}
	}
	ix.idx = grow(ix.idx, len(keys))
	for i, key := range keys {
		e := engine.Find(ix.slots, int(engine.Fib(key)>>ix.shift), key)
		ix.idx[e.Head-1+e.Cnt] = int32(i)
		e.Cnt++
	}
}

// run returns the bounds of key's run in idx; lo == hi when no position
// holds key.
func (ix *keyIndex) run(key int64) (lo, hi int32) {
	e := engine.Find(ix.slots, int(engine.Fib(key)>>ix.shift), key)
	return e.Head - 1, e.Head - 1 + e.Cnt
}

// DB holds the offline samples: one or more independent sample tables
// per relation. Multiple copies let the estimator assign a different
// sample to each appearance of a shared relation, preserving the
// independence of sibling selectivities (Lemma 2 and the discussion
// after it).
type DB struct {
	Copies map[string][]*Table
	Ratio  float64
}

// DefaultCopies is the number of independent sample tables kept per
// relation.
const DefaultCopies = 2

// Build draws tuple-level simple random samples (without replacement) of
// every table at the given sampling ratio. At least minRows tuples are
// kept per sample so tiny dimension tables remain estimable.
func Build(db *engine.DB, ratio float64, copies int, seed int64) (*DB, error) {
	if !(ratio > 0 && ratio <= 1) { // written so that NaN fails too
		return nil, fmt.Errorf("sample: ratio %v out of (0,1]", ratio)
	}
	if copies <= 0 {
		copies = DefaultCopies
	}
	const minRows = 20
	r := rand.New(rand.NewSource(seed))
	out := &DB{Copies: make(map[string][]*Table, len(db.Tables)), Ratio: ratio}
	// Iterate tables in sorted order: map iteration order would otherwise
	// make the shared RNG stream — and thus the samples — nondeterministic.
	names := make([]string, 0, len(db.Tables))
	for name := range db.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := db.Tables[name]
		n := int(float64(t.NumRows()) * ratio)
		if n < minRows {
			n = minRows
		}
		if n > t.NumRows() {
			n = t.NumRows()
		}
		for c := 0; c < copies; c++ {
			idx := r.Perm(t.NumRows())[:n]
			st := engine.NewTable(name, t.Cols, n)
			for ci, col := range st.Data {
				src := t.Data[ci]
				for i, j := range idx {
					col[i] = src[j]
				}
			}
			out.Copies[name] = append(out.Copies[name], newTable(st))
		}
	}
	return out, nil
}

// OpEstimate is the estimated selectivity distribution of one operator.
type OpEstimate struct {
	// Rho is the selectivity estimate rho_n; Var is the estimated
	// variance sigma_n^2 ~= S^2_n / n of the estimate.
	Rho float64
	Var float64

	// The operator's leaves are the plan's leaf ordinals
	// [LeafOff, LeafOff+len(LeafComp)): LeafComp[i] is the contribution
	// W_k of leaf k = LeafOff+i to Var, so Var = sum_i LeafComp[i].
	// Restricting the sum to the leaves shared with another operator
	// gives the S^2_{rho}(m, n) bound of Theorem 7 (Appendix A.7).
	// LeafComp is empty at and above an aggregate. It belongs to the
	// immutable Pass that computed it and is shared by every plan it is
	// spliced into — only LeafOff is the plan's own — so nobody may
	// write to it.
	LeafOff  int
	LeafComp []float64

	// FromOptimizer marks operators (aggregates, and everything above
	// them) whose estimate falls back to the optimizer's cardinality
	// estimate with zero variance (Algorithm 1 lines 3-5).
	FromOptimizer bool

	// SampleCounts are the resource counts this operator incurred while
	// running over the samples, for the runtime-overhead experiments.
	SampleCounts engine.Counts
}

// Sigma returns the standard deviation of the selectivity estimate.
func (e *OpEstimate) Sigma() float64 {
	if e.Var <= 0 {
		return 0
	}
	return math.Sqrt(e.Var)
}

// Estimates holds the per-operator estimates of one plan in preorder:
// Ops[id] is the estimate of the node with that ID. It is immutable once
// Estimate / EstimateMemo has returned and safe to read from any number
// of goroutines (the predictor relies on this when serving batched
// predictions).
type Estimates struct {
	Ops []OpEstimate
}

// newEstimates sizes an Estimates for the plan under root.
func newEstimates(root *engine.Node) *Estimates {
	return &Estimates{Ops: make([]OpEstimate, countNodes(root))}
}

func countNodes(n *engine.Node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}

// Get returns the estimate for a node.
func (e *Estimates) Get(n *engine.Node) (*OpEstimate, error) {
	if n.ID < 0 || n.ID >= len(e.Ops) {
		return nil, fmt.Errorf("sample: no estimate for node %d (%v)", n.ID, n.Kind)
	}
	return &e.Ops[n.ID], nil
}

// TotalSampleCounts sums the sample-run resource counts across the plan,
// used to measure the relative overhead of sampling (Section 6.4).
func (e *Estimates) TotalSampleCounts() engine.Counts {
	var total engine.Counts
	for i := range e.Ops {
		total = total.Add(e.Ops[i].SampleCounts)
	}
	return total
}

// Estimate runs the finalized plan once over the sample tables
// (Algorithm 2's EstSelDistr) and returns every operator's selectivity
// distribution. It is EstimateMemo without a memo: every subtree pass is
// computed, none is retained. cat supplies optimizer estimates for
// aggregates.
func Estimate(root *engine.Node, sdb *DB, cat *catalog.Catalog) (*Estimates, error) {
	return EstimateMemo(context.Background(), root, sdb, cat, nil)
}
