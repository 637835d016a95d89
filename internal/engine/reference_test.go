package engine_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/workload"
)

// refRel is a materialized relation of the reference executor: every
// joined tuple is the concatenation of its input rows.
type refRel struct {
	cols []string
	rows [][]int64
}

// referenceRun is the row-materializing executor engine.Run replaced:
// every scan copies out its qualifying rows, every join concatenates
// matching rows into fresh tuples through a map of row lists, and every
// aggregate groups the materialized tuples. It is kept as the oracle for
// engine.Run's numbers.
func referenceRun(db *engine.DB, root *engine.Node) (*engine.OpResult, error) {
	if err := root.Validate(); err != nil {
		return nil, err
	}
	res, _, err := refNode(db, root)
	return res, err
}

func refNode(db *engine.DB, n *engine.Node) (*engine.OpResult, refRel, error) {
	switch {
	case n.Kind.IsScan():
		return refScan(db, n)
	case n.Kind.IsJoin():
		return refJoin(db, n)
	case n.Kind == engine.Aggregate:
		return refAggregate(db, n)
	case n.Kind == engine.Sort, n.Kind == engine.Materialize:
		child, rel, err := refNode(db, n.Left)
		if err != nil {
			return nil, refRel{}, err
		}
		return &engine.OpResult{
			Node:        n,
			Nl:          child.M,
			M:           child.M,
			LeafProduct: child.LeafProduct,
			Selectivity: child.Selectivity,
			Counts:      engine.UnaryCounts(n.Kind, child.M),
			Left:        child,
		}, rel, nil
	default:
		return nil, refRel{}, fmt.Errorf("reference: cannot execute node kind %s", n.Kind)
	}
}

func refLeafProduct(db *engine.DB, n *engine.Node) (float64, error) {
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

func refScan(db *engine.DB, n *engine.Node) (*engine.OpResult, refRel, error) {
	t, err := db.Table(n.Table)
	if err != nil {
		return nil, refRel{}, err
	}
	idx := make([]int, len(n.Preds))
	for i := range n.Preds {
		if idx[i] = t.ColIndex(n.Preds[i].Col); idx[i] < 0 {
			return nil, refRel{}, fmt.Errorf("reference: predicate column %q not in table %q", n.Preds[i].Col, n.Table)
		}
	}
	var out [][]int64
	mIndex := 0.0
	for r := range t.NumRows() {
		row := make([]int64, len(t.Data))
		for c, col := range t.Data {
			row[c] = col[r]
		}
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
	res := &engine.OpResult{
		Node:        n,
		Nl:          nrows,
		M:           float64(len(out)),
		LeafProduct: nrows,
		Counts:      engine.ScanCounts(n.Kind, nrows, mIndex, len(n.Preds)),
	}
	if nrows > 0 {
		res.Selectivity = res.M / nrows
	}
	return res, refRel{t.Cols, out}, nil
}

func refJoin(db *engine.DB, n *engine.Node) (*engine.OpResult, refRel, error) {
	left, lrel, err := refNode(db, n.Left)
	if err != nil {
		return nil, refRel{}, err
	}
	right, rrel, err := refNode(db, n.Right)
	if err != nil {
		return nil, refRel{}, err
	}
	li, ri := slices.Index(lrel.cols, n.LeftCol), slices.Index(rrel.cols, n.RightCol)
	if li < 0 || ri < 0 {
		return nil, refRel{}, fmt.Errorf("reference: join columns %q/%q not found", n.LeftCol, n.RightCol)
	}
	concat := func(a, b []int64) []int64 { return append(append(make([]int64, 0, len(a)+len(b)), a...), b...) }
	var rows [][]int64
	if len(lrel.rows) <= len(rrel.rows) {
		ht := make(map[int64][][]int64, len(lrel.rows))
		for _, lr := range lrel.rows {
			ht[lr[li]] = append(ht[lr[li]], lr)
		}
		for _, rr := range rrel.rows {
			for _, lr := range ht[rr[ri]] {
				rows = append(rows, concat(lr, rr))
			}
		}
	} else {
		ht := make(map[int64][][]int64, len(rrel.rows))
		for _, rr := range rrel.rows {
			ht[rr[ri]] = append(ht[rr[ri]], rr)
		}
		for _, lr := range lrel.rows {
			for _, rr := range ht[lr[li]] {
				rows = append(rows, concat(lr, rr))
			}
		}
	}
	lp, err := refLeafProduct(db, n)
	if err != nil {
		return nil, refRel{}, err
	}
	m := float64(len(rows))
	res := &engine.OpResult{
		Node:        n,
		Nl:          left.M,
		Nr:          right.M,
		M:           m,
		LeafProduct: lp,
		Counts:      engine.JoinCounts(n.Kind, left.M, right.M, m),
		Left:        left,
		Right:       right,
	}
	if lp > 0 {
		res.Selectivity = m / lp
	}
	return res, refRel{append(slices.Clone(lrel.cols), rrel.cols...), rows}, nil
}

func refAggregate(db *engine.DB, n *engine.Node) (*engine.OpResult, refRel, error) {
	child, rel, err := refNode(db, n.Left)
	if err != nil {
		return nil, refRel{}, err
	}
	var rows [][]int64
	if n.GroupCol == "" {
		rows = [][]int64{{int64(len(rel.rows))}}
	} else {
		gi := slices.Index(rel.cols, n.GroupCol)
		if gi < 0 {
			return nil, refRel{}, fmt.Errorf("reference: group column %q not found", n.GroupCol)
		}
		counts := make(map[int64]int64)
		for _, r := range rel.rows {
			counts[r[gi]]++
		}
		for k, v := range counts {
			rows = append(rows, []int64{k, v})
		}
	}
	lp, err := refLeafProduct(db, n)
	if err != nil {
		return nil, refRel{}, err
	}
	res := &engine.OpResult{
		Node:        n,
		Nl:          child.M,
		M:           float64(len(rows)),
		LeafProduct: lp,
		Counts:      engine.UnaryCounts(engine.Aggregate, child.M),
		Left:        child,
	}
	if lp > 0 {
		res.Selectivity = res.M / lp
	}
	return res, refRel{[]string{"group", "count"}, rows}, nil
}

// diffResults reports the first difference between two result trees:
// shape, node, or any number, compared bit for bit.
func diffResults(got, want *engine.OpResult) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("tree shape differs: got %v, want %v", got != nil, want != nil)
	}
	if got == nil {
		return nil
	}
	bits := func(r *engine.OpResult) [10]uint64 {
		c := r.Counts
		return [10]uint64{
			math.Float64bits(r.Nl), math.Float64bits(r.Nr), math.Float64bits(r.M),
			math.Float64bits(r.LeafProduct), math.Float64bits(r.Selectivity),
			math.Float64bits(c.NS), math.Float64bits(c.NR), math.Float64bits(c.NT),
			math.Float64bits(c.NI), math.Float64bits(c.NO),
		}
	}
	if got.Node != want.Node {
		return fmt.Errorf("node %d (%v): result of another node", want.Node.ID, want.Node.Kind)
	}
	if g, w := bits(got), bits(want); g != w {
		return fmt.Errorf("node %d (%v): got %+v, want %+v", want.Node.ID, want.Node.Kind, *got, *want)
	}
	if err := diffResults(got.Left, want.Left); err != nil {
		return err
	}
	return diffResults(got.Right, want.Right)
}

// smallDB generates a database of the given kind at a quarter of the
// 1G scale, with its catalog.
func smallDB(kind datagen.DBKind) (*engine.DB, *catalog.Catalog) {
	cfg := datagen.ConfigFor(kind, 5)
	cfg.ScaleFactor /= 4
	db := datagen.Generate(cfg)
	return db, catalog.Build(db)
}

// generatedPlans plans n queries of each benchmark against cat, every
// join order plan.Alternatives offers (up to 8) included.
func generatedPlans(tb testing.TB, cat *catalog.Catalog, n int, benches ...workload.Benchmark) []*engine.Node {
	tb.Helper()
	var plans []*engine.Node
	for _, b := range benches {
		qs, err := workload.Generate(b, cat, n, 7)
		if err != nil {
			tb.Fatal(err)
		}
		for _, q := range qs {
			alts, err := plan.Alternatives(q, cat, 8)
			if err != nil {
				tb.Fatalf("%v %s: %v", b, q.Name, err)
			}
			plans = append(plans, alts...)
		}
	}
	return plans
}

// handBuiltPlans are the shapes the generators do not produce, over
// two tables: r(a, b) with a = 0..99, b = a % 10; s(c, d) with
// c = 0..59, d = c % 5.
func handBuiltPlans() []*engine.Node {
	scan := func(table string, preds ...engine.Predicate) *engine.Node {
		return &engine.Node{Kind: engine.SeqScan, Table: table, Preds: preds}
	}
	join := func(kind engine.NodeKind, lc, rc string, l, r *engine.Node) *engine.Node {
		return &engine.Node{Kind: kind, LeftCol: lc, RightCol: rc, Left: l, Right: r}
	}
	var plans []*engine.Node
	for _, k := range []engine.NodeKind{engine.HashJoin, engine.MergeJoin, engine.NestLoopJoin} {
		plans = append(plans,
			// every join kind, both sides the build side once
			join(k, "b", "d", scan("r"), scan("s")),
			join(k, "d", "b", scan("s"), scan("r")),
			// a join above an aggregate, joining on its group column
			join(k, "group", "d", &engine.Node{Kind: engine.Aggregate, GroupCol: "b", Left: scan("r")}, scan("s")),
			join(k, "c", "count", scan("s"), &engine.Node{Kind: engine.Aggregate, GroupCol: "d", Left: scan("s")}),
			// an empty scan feeding a join, on either side
			join(k, "b", "d", scan("r", engine.Predicate{Col: "a", Op: engine.Lt, Lo: 0}), scan("s")),
			join(k, "b", "d", scan("r"), scan("s", engine.Predicate{Col: "c", Op: engine.Gt, Lo: 1000})),
			// a self-join, and a join above one whose left column names
			// both its leaves: it resolves to the first, left to right
			join(k, "b", "a", scan("r"), scan("r", engine.Predicate{Col: "a", Op: engine.Le, Lo: 20})),
			join(k, "a", "c", join(k, "b", "b", scan("r", engine.Predicate{Col: "a", Op: engine.Lt, Lo: 30}), scan("r")), scan("s")),
			// a join column in the second leaf of its side
			join(k, "c", "a", join(k, "b", "d", scan("r"), scan("s")), scan("r")),
		)
	}
	empty := engine.Predicate{Col: "a", Op: engine.Gt, Lo: 1000}
	plans = append(plans,
		&engine.Node{Kind: engine.Aggregate, Left: join(engine.HashJoin, "b", "d", scan("r"), scan("s"))},
		&engine.Node{Kind: engine.Aggregate, Left: scan("r", empty)},
		&engine.Node{Kind: engine.Aggregate, GroupCol: "b", Left: scan("r", empty)},
		&engine.Node{Kind: engine.Aggregate, GroupCol: "d",
			Left: &engine.Node{Kind: engine.Sort, Left: join(engine.HashJoin, "b", "d", scan("r"), scan("s"))}},
		&engine.Node{Kind: engine.Materialize, Left: &engine.Node{Kind: engine.IndexScan, Table: "r",
			Preds: []engine.Predicate{{Col: "a", Op: engine.Between, Lo: 10, Hi: 59}, {Col: "b", Op: engine.Ge, Lo: 4}}}},
	)
	return plans
}

// TestRunMatchesReference holds engine.Run, which executes over
// provenance, to the row-materializing executor it replaced: every
// OpResult number, bit for bit, and the tree shape, on generated Micro,
// SelJoin and TPCH plans (all their join orders) over small uniform and
// skewed databases, and on hand-built joins above aggregates, empty
// scans feeding joins, self-joins and all three join kinds.
func TestRunMatchesReference(t *testing.T) {
	check := func(name string, db *engine.DB, p *engine.Node) {
		t.Helper()
		p.Finalize()
		got, err := engine.Run(db, p)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, p)
		}
		want, err := referenceRun(db, p)
		if err != nil {
			t.Fatalf("%s: reference: %v\n%s", name, err, p)
		}
		if err := diffResults(got, want); err != nil {
			t.Errorf("%s: %v\n%s", name, err, p)
		}
	}
	n := 32
	if testing.Short() {
		n = 8
	}
	for _, kind := range []datagen.DBKind{datagen.Uniform1G, datagen.Skewed1G} {
		db, cat := smallDB(kind)
		plans := generatedPlans(t, cat, n, workload.Micro, workload.SelJoin, workload.TPCH)
		t.Logf("%v: %d generated plans", kind, len(plans))
		for i, p := range plans {
			check(fmt.Sprintf("%v plan %d", kind, i), db, p)
		}
	}

	db := engine.NewDB()
	r, s := engine.NewTable("r", []string{"a", "b"}, 100), engine.NewTable("s", []string{"c", "d"}, 60)
	for i := range 100 {
		r.Data[0][i], r.Data[1][i] = int64(i), int64(i%10)
	}
	for i := range 60 {
		s.Data[0][i], s.Data[1][i] = int64(i), int64(i%5)
	}
	db.Add(r)
	db.Add(s)
	for i, p := range handBuiltPlans() {
		check(fmt.Sprintf("hand-built plan %d", i), db, p)
	}
}

// isDescendant is TestFinalizeEnd's oracle: whether d lies strictly
// inside the subtree rooted at a, by walking it.
func isDescendant(a, d *engine.Node) bool {
	var find func(x *engine.Node) bool
	find = func(x *engine.Node) bool {
		return x != nil && (x == d || find(x.Left) || find(x.Right))
	}
	return find(a.Left) || find(a.Right)
}

// TestFinalizeEnd holds the O(1) nesting test the predictor uses for
// Lemma 3, a.ID < d.ID < a.End, to a walk of a's subtree on every
// ordered node pair of generated plans (all their join orders) and of
// the hand-built shapes, including a unary chain.
func TestFinalizeEnd(t *testing.T) {
	_, cat := smallDB(datagen.Skewed1G)
	plans := append(generatedPlans(t, cat, 32, workload.Micro, workload.SelJoin, workload.TPCH), handBuiltPlans()...)
	plans = append(plans, &engine.Node{Kind: engine.Aggregate,
		Left: &engine.Node{Kind: engine.Sort, Left: &engine.Node{Kind: engine.SeqScan, Table: "r"}}})
	pairs := 0
	for i, p := range plans {
		order := p.Finalize()
		if p.End != len(order) {
			t.Fatalf("plan %d: root End %d, %d nodes", i, p.End, len(order))
		}
		for _, a := range order {
			for _, d := range order {
				if got, want := a.ID < d.ID && d.ID < a.End, isDescendant(a, d); got != want {
					t.Fatalf("plan %d: node %d [%d, %d) contains %d: %v, the walk says %v\n%s",
						i, a.ID, a.ID, a.End, d.ID, got, want, p)
				}
				pairs++
			}
		}
	}
	t.Logf("%d plans, %d node pairs", len(plans), pairs)
}

// threeJoinPlan is TestRunAllocs' fixed plan: three hash joins over
// four scans of two tables of rows rows each, keyed so that the output
// grows with rows.
func threeJoinPlan(rows int) (*engine.DB, *engine.Node) {
	db := engine.NewDB()
	r, s := engine.NewTable("r", []string{"a", "b"}, rows), engine.NewTable("s", []string{"c", "d"}, rows)
	for i := range rows {
		r.Data[0][i], r.Data[1][i] = int64(i), int64(i%10)
		s.Data[0][i], s.Data[1][i] = int64(i), int64(i%5)
	}
	db.Add(r)
	db.Add(s)
	scan := func(table string) *engine.Node { return &engine.Node{Kind: engine.SeqScan, Table: table} }
	p := &engine.Node{Kind: engine.HashJoin, LeftCol: "a", RightCol: "c",
		Left: &engine.Node{Kind: engine.HashJoin, LeftCol: "a", RightCol: "a",
			Left: &engine.Node{Kind: engine.HashJoin, LeftCol: "b", RightCol: "d",
				Left: &engine.Node{Kind: engine.SeqScan, Table: "r",
					Preds: []engine.Predicate{{Col: "a", Op: engine.Lt, Lo: int64(rows / 2)}}},
				Right: scan("s")},
			Right: scan("r")},
		Right: scan("s")}
	p.Finalize()
	return db, p
}

// TestRunAllocs bounds engine.Run's allocations per call by a constant
// per operator: the result node, and for an operator whose parent reads
// its rows the relation, its leaf list and its provenance block. A
// per-tuple allocation would make the count grow with the output, which
// runs here at two sizes.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const perOp = 5
	for _, rows := range []int{200, 2000} {
		db, p := threeJoinPlan(rows)
		res, err := engine.Run(db, p)
		if err != nil {
			t.Fatal(err)
		}
		ops := len(res.Results())
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := engine.Run(db, p); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d rows per table, %v output rows: %.1f allocs/call over %d operators", rows, res.M, allocs, ops)
		if allocs > float64(perOp*ops) {
			t.Errorf("%d rows per table: %.1f allocs/call, budget %d (%d per operator)", rows, allocs, perOp*ops, perOp)
		}
	}
}

// BenchmarkRunCold measures engine.Run, the executor layer: one op
// executes 64 generated SelJoin plans (all their join orders) on
// uniform-1G, as a cold run-cache miss does.
func BenchmarkRunCold(b *testing.B) {
	db := datagen.Generate(datagen.ConfigFor(datagen.Uniform1G, 5))
	cat := catalog.Build(db)
	plans := generatedPlans(b, cat, 64, workload.SelJoin)[:64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			if _, err := engine.Run(db, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}
