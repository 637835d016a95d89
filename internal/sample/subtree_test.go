package sample

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// memoRecorder is a PassMemo over a plain map that counts hits/misses.
type memoRecorder struct {
	mu     sync.Mutex
	m      map[string]*Pass
	hits   int
	misses int
}

func newMemoRecorder() *memoRecorder { return &memoRecorder{m: make(map[string]*Pass)} }

func (r *memoRecorder) memo(key string, compute func() (*Pass, error)) (*Pass, error) {
	r.mu.Lock()
	if p, ok := r.m[key]; ok {
		r.hits++
		r.mu.Unlock()
		return p, nil
	}
	r.mu.Unlock()
	p, err := compute()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.m[key] = p
	r.misses++
	r.mu.Unlock()
	return p, nil
}

// subtreePlans returns plans spanning the estimator's cases: scans with
// and without predicates, a 2-way join, a 3-way left-deep join, a plan
// with a shared relation (two scans of r), a sort atop a join, and an
// aggregate with a join above it (the tainted region).
func subtreePlans() []*engine.Node {
	pred := engine.Predicate{Col: "a", Op: engine.Le, Lo: 400}
	mk := func(n *engine.Node) *engine.Node { n.Finalize(); return n }
	return []*engine.Node{
		mk(&engine.Node{Kind: engine.SeqScan, Table: "r"}),
		mk(&engine.Node{Kind: engine.SeqScan, Table: "r", Preds: []engine.Predicate{pred}}),
		mk(&engine.Node{
			Kind: engine.HashJoin, LeftCol: "b", RightCol: "d",
			Left:  &engine.Node{Kind: engine.SeqScan, Table: "r", Preds: []engine.Predicate{pred}},
			Right: &engine.Node{Kind: engine.SeqScan, Table: "s"},
		}),
		mk(&engine.Node{
			Kind: engine.HashJoin, LeftCol: "d", RightCol: "b",
			Left: &engine.Node{
				Kind: engine.HashJoin, LeftCol: "b", RightCol: "d",
				Left:  &engine.Node{Kind: engine.SeqScan, Table: "r", Preds: []engine.Predicate{pred}},
				Right: &engine.Node{Kind: engine.SeqScan, Table: "s"},
			},
			Right: &engine.Node{Kind: engine.SeqScan, Table: "r"},
		}),
		mk(&engine.Node{
			Kind: engine.Sort,
			Left: &engine.Node{
				Kind: engine.MergeJoin, LeftCol: "b", RightCol: "d",
				Left:  &engine.Node{Kind: engine.SeqScan, Table: "r"},
				Right: &engine.Node{Kind: engine.SeqScan, Table: "s"},
			},
		}),
		mk(&engine.Node{
			Kind: engine.HashJoin, LeftCol: "b", RightCol: "d",
			Left: &engine.Node{
				Kind: engine.Aggregate, GroupCol: "b",
				Left: &engine.Node{Kind: engine.SeqScan, Table: "r"},
			},
			Right: &engine.Node{Kind: engine.SeqScan, Table: "s"},
		}),
	}
}

// sameEstimates compares two Estimates field by field, exactly: both
// come from the same walker, which sums floats in a fixed order.
func sameEstimates(t *testing.T, tag string, a, b *Estimates) {
	t.Helper()
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("%s: %d vs %d estimates", tag, len(a.Ops), len(b.Ops))
	}
	for id := range a.Ops {
		ea, eb := &a.Ops[id], &b.Ops[id]
		if ea.Rho != eb.Rho || ea.Var != eb.Var {
			t.Errorf("%s: node %d rho/var (%v,%v) vs (%v,%v)",
				tag, id, ea.Rho, ea.Var, eb.Rho, eb.Var)
		}
		if ea.FromOptimizer != eb.FromOptimizer {
			t.Errorf("%s: node %d FromOptimizer %v vs %v", tag, id, ea.FromOptimizer, eb.FromOptimizer)
		}
		if ea.LeafOff != eb.LeafOff {
			t.Errorf("%s: node %d LeafOff %d vs %d", tag, id, ea.LeafOff, eb.LeafOff)
		}
		if len(ea.LeafComp) != len(eb.LeafComp) {
			t.Fatalf("%s: node %d leaf runs sized %d vs %d",
				tag, id, len(ea.LeafComp), len(eb.LeafComp))
		}
		for k, v := range ea.LeafComp {
			if v != eb.LeafComp[k] {
				t.Errorf("%s: node %d LeafComp[%d] %v vs %v", tag, id, k, v, eb.LeafComp[k])
			}
		}
		if ea.SampleCounts != eb.SampleCounts {
			t.Errorf("%s: node %d SampleCounts %+v vs %+v", tag, id, ea.SampleCounts, eb.SampleCounts)
		}
	}
}

// pinnedOp is one operator's estimate as a literal: leafComp[i] is the
// component of leaf ordinal leafOff+i.
type pinnedOp struct {
	id       int
	rho      float64
	v        float64
	fromOpt  bool
	leafOff  int
	leafComp []float64
}

// pinnedEstimates are the per-operator estimates of subtreePlans() on
// synthDB(1000, 800, 12, 3) with Build(db, 0.2, 2, 4), printed with %x
// from the whole-plan estimator (a second, goroutine-per-join typing of
// Algorithm 1) at the last commit that carried it, adbd23a. They are
// the record of its numbers: the surviving walker must reproduce them
// bit for bit.
var pinnedEstimates = [][]pinnedOp{
	{ // plan 0
		{id: 0, rho: 0x1p+00, v: 0x0p+00, fromOpt: false, leafComp: []float64{0x0p+00}},
	},
	{ // plan 1
		{id: 0, rho: 0x1.8a3d70a3d70a4p-02, v: 0x1.365881a1554fcp-10, fromOpt: false, leafComp: []float64{0x1.365881a1554fcp-10}},
	},
	{ // plan 2
		{id: 0, rho: 0x1.e6e978d4fdf3bp-06, v: 0x1.6bed4e43ece47p-17, fromOpt: false, leafComp: []float64{0x1.4dc5ba9161fa9p-17, 0x1.e2793b28ae9e2p-21}},
		{id: 1, rho: 0x1.8a3d70a3d70a4p-02, v: 0x1.365881a1554fcp-10, fromOpt: false, leafComp: []float64{0x1.365881a1554fcp-10}},
		{id: 2, rho: 0x1p+00, v: 0x0p+00, fromOpt: false, leafOff: 1, leafComp: []float64{0x0p+00}},
	},
	{ // plan 3
		{id: 0, rho: 0x1.4a38327674d16p-09, v: 0x1.84efcf1531f2cp-24, fromOpt: false, leafComp: []float64{0x1.3c60290113741p-24, 0x1.389e136f7919p-27, 0x1.0bdf1d317adccp-27}},
		{id: 1, rho: 0x1.e6e978d4fdf3bp-06, v: 0x1.6bed4e43ece47p-17, fromOpt: false, leafComp: []float64{0x1.4dc5ba9161fa9p-17, 0x1.e2793b28ae9e2p-21}},
		{id: 2, rho: 0x1.8a3d70a3d70a4p-02, v: 0x1.365881a1554fcp-10, fromOpt: false, leafComp: []float64{0x1.365881a1554fcp-10}},
		{id: 3, rho: 0x1p+00, v: 0x0p+00, fromOpt: false, leafOff: 1, leafComp: []float64{0x0p+00}},
		{id: 4, rho: 0x1p+00, v: 0x0p+00, fromOpt: false, leafOff: 2, leafComp: []float64{0x0p+00}},
	},
	{ // plan 4
		{id: 0, rho: 0x1.4ced916872b02p-04, v: 0x1.3210be5981138p-17, fromOpt: false, leafComp: []float64{0x1.f19cba043b0eep-18, 0x1.ca130abb1c605p-20}},
		{id: 1, rho: 0x1.4ced916872b02p-04, v: 0x1.3210be5981138p-17, fromOpt: false, leafComp: []float64{0x1.f19cba043b0eep-18, 0x1.ca130abb1c605p-20}},
		{id: 2, rho: 0x1p+00, v: 0x0p+00, fromOpt: false, leafComp: []float64{0x0p+00}},
		{id: 3, rho: 0x1p+00, v: 0x0p+00, fromOpt: false, leafOff: 1, leafComp: []float64{0x0p+00}},
	},
	{ // plan 5
		{id: 0, rho: 0x1.0624dd2f1a9fcp-10, v: 0x0p+00, fromOpt: true, leafComp: nil},
		{id: 1, rho: 0x1.89374bc6a7efap-07, v: 0x0p+00, fromOpt: true, leafComp: nil},
		{id: 2, rho: 0x1p+00, v: 0x0p+00, fromOpt: false, leafComp: []float64{0x0p+00}},
		{id: 3, rho: 0x1p+00, v: 0x0p+00, fromOpt: false, leafOff: 1, leafComp: []float64{0x0p+00}},
	},
}

// matchesPinned requires est to equal the pinned literals exactly.
func matchesPinned(t *testing.T, tag string, want []pinnedOp, est *Estimates) {
	t.Helper()
	if len(est.Ops) != len(want) {
		t.Fatalf("%s: %d estimates, pinned %d", tag, len(est.Ops), len(want))
	}
	for _, w := range want {
		e := &est.Ops[w.id]
		if e.Rho != w.rho || e.Var != w.v || e.FromOptimizer != w.fromOpt {
			t.Errorf("%s: node %d rho/var/fromOpt (%x,%x,%v), pinned (%x,%x,%v)",
				tag, w.id, e.Rho, e.Var, e.FromOptimizer, w.rho, w.v, w.fromOpt)
		}
		if len(e.LeafComp) != len(w.leafComp) {
			t.Fatalf("%s: node %d has %d leaf components, pinned %d",
				tag, w.id, len(e.LeafComp), len(w.leafComp))
		}
		if len(w.leafComp) > 0 && e.LeafOff != w.leafOff {
			t.Errorf("%s: node %d leaf run starts at %d, pinned %d", tag, w.id, e.LeafOff, w.leafOff)
		}
		for i, v := range w.leafComp {
			if e.LeafComp[i] != v {
				t.Errorf("%s: node %d LeafComp[%d] = %x, pinned %x", tag, w.id, w.leafOff+i, e.LeafComp[i], v)
			}
		}
	}
}

// TestEstimateMemoMatchesEstimate runs the walker over every plan shape
// without a memo, through a cold memo and through a warm one, and
// requires all three to carry the pinned per-operator distributions.
func TestEstimateMemoMatchesEstimate(t *testing.T) {
	db := synthDB(1000, 800, 12, 3)
	cat := catalog.Build(db)
	sdb, err := Build(db, 0.2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := newMemoRecorder()
	plans := subtreePlans()
	if len(plans) != len(pinnedEstimates) {
		t.Fatalf("%d plans, %d pinned", len(plans), len(pinnedEstimates))
	}
	for i, p := range plans {
		want, err := Estimate(p, sdb, cat)
		if err != nil {
			t.Fatalf("plan %d: Estimate: %v", i, err)
		}
		matchesPinned(t, "no-memo", pinnedEstimates[i], want)
		// Twice through the shared memo: cold then warm.
		cold, err := EstimateMemo(context.Background(), p, sdb, cat, rec.memo)
		if err != nil {
			t.Fatalf("plan %d: EstimateMemo(memo): %v", i, err)
		}
		matchesPinned(t, "memo-cold", pinnedEstimates[i], cold)
		sameEstimates(t, "memo-cold", want, cold)
		warm, err := EstimateMemo(context.Background(), p, sdb, cat, rec.memo)
		if err != nil {
			t.Fatal(err)
		}
		matchesPinned(t, "memo-warm", pinnedEstimates[i], warm)
		sameEstimates(t, "memo-warm", want, warm)
	}
	if rec.hits == 0 || rec.misses == 0 {
		t.Errorf("memo traffic hits=%d misses=%d, want both positive", rec.hits, rec.misses)
	}
}

// TestEstimateMemoSharesSubtrees checks the point of the exercise: two
// join orders over the same lower join share its pass through the memo.
func TestEstimateMemoSharesSubtrees(t *testing.T) {
	db := synthDB(1000, 800, 12, 3)
	cat := catalog.Build(db)
	sdb, err := Build(db, 0.2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	common := func() *engine.Node {
		return &engine.Node{
			Kind: engine.HashJoin, LeftCol: "b", RightCol: "d",
			Left:  &engine.Node{Kind: engine.SeqScan, Table: "r"},
			Right: &engine.Node{Kind: engine.SeqScan, Table: "s"},
		}
	}
	planA := &engine.Node{
		Kind: engine.HashJoin, LeftCol: "d", RightCol: "b",
		Left: common(), Right: &engine.Node{Kind: engine.SeqScan, Table: "r", Preds: []engine.Predicate{{Col: "a", Op: engine.Le, Lo: 100}}},
	}
	planA.Finalize()
	planB := &engine.Node{
		Kind: engine.HashJoin, LeftCol: "d", RightCol: "b",
		Left: common(), Right: &engine.Node{Kind: engine.SeqScan, Table: "r", Preds: []engine.Predicate{{Col: "a", Op: engine.Le, Lo: 700}}},
	}
	planB.Finalize()

	rec := newMemoRecorder()
	if _, err := EstimateMemo(context.Background(), planA, sdb, cat, rec.memo); err != nil {
		t.Fatal(err)
	}
	missesAfterA := rec.misses
	if rec.hits != 0 {
		t.Fatalf("cold plan recorded %d hits", rec.hits)
	}
	if _, err := EstimateMemo(context.Background(), planB, sdb, cat, rec.memo); err != nil {
		t.Fatal(err)
	}
	// Plan B shares the lower join and both its scans (3 passes); only
	// its own filtered scan of r and the top join are new. The shared
	// scan of r in the lower join uses copy 0 in both plans, while B's
	// filtered r-scan is the second appearance (copy 1) — a distinct key.
	if hits := rec.hits; hits != 3 {
		t.Errorf("plan B hit %d shared passes, want 3", hits)
	}
	if news := rec.misses - missesAfterA; news != 2 {
		t.Errorf("plan B computed %d fresh passes, want 2", news)
	}
}

// TestEstimateMemoContextCancel pins prompt cancellation: a canceled
// context aborts the pass with ctx.Err before any work.
func TestEstimateMemoContextCancel(t *testing.T) {
	db := synthDB(500, 500, 8, 1)
	cat := catalog.Build(db)
	sdb, err := Build(db, 0.2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EstimateMemo(ctx, subtreePlans()[3], sdb, cat, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEstimateMemoWarmPassComputesNothing pins the tainted-region and
// pass-through memoization: a warm second pass over any plan shape —
// including sorts above joins and joins above aggregates — performs one
// memo hit per operator and computes zero fresh passes. Before the fix,
// unary nodes and everything at or above an aggregate were recomputed
// on every estimate.
func TestEstimateMemoWarmPassComputesNothing(t *testing.T) {
	db := synthDB(1000, 800, 12, 3)
	cat := catalog.Build(db)
	sdb, err := Build(db, 0.2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range subtreePlans() {
		rec := newMemoRecorder()
		if _, err := EstimateMemo(context.Background(), p, sdb, cat, rec.memo); err != nil {
			t.Fatalf("plan %d: cold: %v", i, err)
		}
		n := countNodes(p)
		if rec.misses != n || rec.hits != 0 {
			t.Errorf("plan %d: cold pass hits=%d misses=%d, want 0/%d",
				i, rec.hits, rec.misses, n)
		}
		if _, err := EstimateMemo(context.Background(), p, sdb, cat, rec.memo); err != nil {
			t.Fatalf("plan %d: warm: %v", i, err)
		}
		if rec.misses != n {
			t.Errorf("plan %d: warm pass computed %d fresh passes, want 0",
				i, rec.misses-n)
		}
		if rec.hits != n {
			t.Errorf("plan %d: warm pass hit %d passes, want one per operator (%d)",
				i, rec.hits, n)
		}
	}
}

// TestEmptyRelationIsAnError pins the defined answer for a relation
// without rows: its sample is empty, a selectivity over it is 0/0, and
// the pass must say so instead of handing Rho = +Inf and Var = +Inf to
// the predictor with a nil error — for the scan and for a join above
// it.
func TestEmptyRelationIsAnError(t *testing.T) {
	db := synthDB(200, 0, 8, 5)
	cat := catalog.Build(db)
	sdb, err := Build(db, 0.2, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	scan := &engine.Node{Kind: engine.SeqScan, Table: "s"}
	scan.Finalize()
	for name, p := range map[string]*engine.Node{"scan": scan, "join": joinPlan()} {
		est, err := Estimate(p, sdb, cat)
		if err == nil {
			t.Errorf("%s over an empty relation: nil error, root estimate %+v", name, est.Ops[p.ID])
		} else if want := `sample: relation "s" has an empty sample`; err.Error() != want {
			t.Errorf("%s: error %q, want %q", name, err, want)
		}
	}
}

// TestPassOwnsItsRows pins the pooling contract of the sampling pass:
// what a Pass keeps is its own memory, never a window into the pooled
// scratch. It holds on to two child passes and the join over them,
// recycles the scratch through a few hundred unrelated estimates, then
// re-joins the kept children and requires the kept join back bit for
// bit — serially, then from several goroutines sharing one memo.
func TestPassOwnsItsRows(t *testing.T) {
	db := synthDB(1000, 800, 12, 3)
	cat := catalog.Build(db)
	sdb, err := Build(db, 0.2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	top := subtreePlans()[3] // (r|a<=400 join s) join r
	rec := newMemoRecorder()
	if _, err := EstimateMemo(context.Background(), top, sdb, cat, rec.memo); err != nil {
		t.Fatal(err)
	}
	left := rec.m[passKey(top.Left, []int{0, 0})]
	right := rec.m[passKey(top.Right, []int{1})]
	kept := rec.m[passKey(top, []int{0, 0, 1})]
	if left == nil || right == nil || kept == nil || kept.rows() == 0 {
		t.Fatalf("kept passes missing: %v %v %v", left, right, kept)
	}
	leftRows, rightRows := slices.Clone(left.prov), slices.Clone(right.prov)

	// churn estimates plans of other shapes and sizes, memo-less and
	// through the shared memo, so pooled scratch is taken, overwritten
	// and returned many times; then it re-joins the kept children.
	churn := func(seed, rounds int) {
		for i := 0; i < rounds; i++ {
			pred := engine.Predicate{Col: "a", Op: engine.Le, Lo: int64((seed*131 + i*37) % 1000)}
			p := &engine.Node{
				Kind: engine.HashJoin, LeftCol: "d", RightCol: "b",
				Left:  &engine.Node{Kind: engine.SeqScan, Table: "s"},
				Right: &engine.Node{Kind: engine.SeqScan, Table: "r", Preds: []engine.Predicate{pred}},
			}
			p.Finalize()
			if _, err := Estimate(p, sdb, cat); err != nil {
				t.Error(err)
				return
			}
			if _, err := EstimateMemo(context.Background(), p, sdb, cat, rec.memo); err != nil {
				t.Error(err)
				return
			}
			got, err := joinPass(top, left, right)
			if err != nil {
				t.Error(err)
				return
			}
			if !slices.Equal(got.prov, kept.prov) || !reflect.DeepEqual(got.est, kept.est) {
				t.Errorf("seed %d round %d: re-joined pass differs from the kept one", seed, i)
				return
			}
		}
	}
	churn(0, 150)
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			churn(g, 40)
		}()
	}
	wg.Wait()
	if !slices.Equal(left.prov, leftRows) || !slices.Equal(right.prov, rightRows) {
		t.Error("a kept child pass changed under later estimates")
	}
}

// TestScanPassMatchesEngineAtEdges runs predicates at the edges of int64
// — each Op at each edge operand, Between empty, a single value and the
// full range — alone and behind a leading predicate, over a sample that
// is the whole table: the pass must keep exactly the rows engine.Run
// counts, so the leading predicate's column loop and the in-place filter
// read each range as the engine's scan does.
func TestScanPassMatchesEngineAtEdges(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	db := engine.NewDB()
	db.Add(tableOf("t", []string{"x", "y"}, vals, vals))
	st := newTable(tableOf("t", []string{"x", "y"}, vals, vals))

	var preds []engine.Predicate
	for _, lo := range vals {
		for _, op := range []engine.CmpOp{engine.Lt, engine.Le, engine.Eq, engine.Ge, engine.Gt} {
			preds = append(preds, engine.Predicate{Col: "x", Op: op, Lo: lo})
		}
		for _, hi := range vals {
			preds = append(preds, engine.Predicate{Col: "x", Op: engine.Between, Lo: lo, Hi: hi})
		}
	}
	lead := engine.Predicate{Col: "y", Op: engine.Ge, Lo: -1}
	for _, p := range preds {
		for _, conj := range [][]engine.Predicate{{p}, {lead, p}} {
			n := &engine.Node{Kind: engine.SeqScan, Table: "t", Preds: conj}
			n.Finalize()
			res, err := engine.Run(db, n)
			if err != nil {
				t.Fatal(err)
			}
			pass, err := scanPass(n, st)
			if err != nil {
				t.Fatal(err)
			}
			if got := pass.rows(); got != int(res.M) {
				t.Errorf("%s: pass keeps %d rows, engine.Run %g", n.Sig, got, res.M)
			}
		}
	}
}
