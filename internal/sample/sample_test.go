package sample

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/stats"
)

// synthDB builds r(a,b) and s(c,d) with controlled join structure:
// b and d uniform over joint domain size dom.
func synthDB(nr, ns, dom int, seed int64) *engine.DB {
	r := rand.New(rand.NewSource(seed))
	rt, st := engine.NewTable("r", []string{"a", "b"}, nr), engine.NewTable("s", []string{"c", "d"}, ns)
	for _, t := range []*engine.Table{rt, st} {
		for i := range t.NumRows() {
			t.Data[0][i], t.Data[1][i] = int64(i), int64(r.Intn(dom))
		}
	}
	db := engine.NewDB()
	db.Add(rt)
	db.Add(st)
	return db
}

// tableOf builds a table from its columns.
func tableOf(name string, cols []string, data ...[]int64) *engine.Table {
	t := engine.NewTable(name, cols, len(data[0]))
	for c, col := range data {
		copy(t.Data[c], col)
	}
	return t
}

func scanPlan(pred *engine.Predicate) *engine.Node {
	p := &engine.Node{Kind: engine.SeqScan, Table: "r"}
	if pred != nil {
		p.Preds = []engine.Predicate{*pred}
	}
	p.Finalize()
	return p
}

func joinPlan() *engine.Node {
	p := &engine.Node{
		Kind: engine.HashJoin, LeftCol: "b", RightCol: "d",
		Left:  &engine.Node{Kind: engine.SeqScan, Table: "r"},
		Right: &engine.Node{Kind: engine.SeqScan, Table: "s"},
	}
	p.Finalize()
	return p
}

func TestBuildSampleSizes(t *testing.T) {
	db := synthDB(10000, 5000, 10, 1)
	sdb, err := Build(db, 0.05, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sdb.Copies["r"]); got != 2 {
		t.Fatalf("copies=%d, want 2", got)
	}
	if n := sdb.Copies["r"][0].NumRows(); n != 500 {
		t.Errorf("sample size %d, want 500", n)
	}
	// Copies must differ (independent draws).
	same := true
	a, b := sdb.Copies["r"][0], sdb.Copies["r"][1]
	for i := range a.Data[0] {
		if a.Data[0][i] != b.Data[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Error("sample copies identical; expected independent draws")
	}
}

func TestBuildRejectsBadRatio(t *testing.T) {
	db := synthDB(100, 100, 10, 1)
	for _, ratio := range []float64{0, -0.1, 1.5, math.NaN()} {
		if _, err := Build(db, ratio, 1, 1); err == nil {
			t.Errorf("ratio %v: expected error", ratio)
		}
	}
}

func TestScanEstimateUnbiased(t *testing.T) {
	db := synthDB(20000, 100, 100, 3)
	cat := catalog.Build(db)
	pred := &engine.Predicate{Col: "b", Op: engine.Lt, Lo: 30} // truth ~0.3
	plan := scanPlan(pred)
	truth := trueSelectivity(t, db, plan)

	var rhos []float64
	for seed := int64(0); seed < 40; seed++ {
		sdb, err := Build(db, 0.05, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		est, err := Estimate(plan, sdb, cat)
		if err != nil {
			t.Fatal(err)
		}
		rhos = append(rhos, est.Ops[plan.ID].Rho)
	}
	if m := stats.Mean(rhos); math.Abs(m-truth) > 0.02 {
		t.Errorf("mean estimate %v vs truth %v", m, truth)
	}
}

// The key property for scans: the estimated variance rho(1-rho)/n should
// match the observed variance of the estimator across independent
// samples.
func TestScanVarianceEstimateMatchesEmpirical(t *testing.T) {
	db := synthDB(10000, 100, 100, 4)
	cat := catalog.Build(db)
	plan := scanPlan(&engine.Predicate{Col: "b", Op: engine.Lt, Lo: 20})

	var rhos, vars []float64
	for seed := int64(0); seed < 60; seed++ {
		sdb, err := Build(db, 0.02, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		est, err := Estimate(plan, sdb, cat)
		if err != nil {
			t.Fatal(err)
		}
		e := est.Ops[plan.ID]
		rhos = append(rhos, e.Rho)
		vars = append(vars, e.Var)
	}
	empirical := stats.Variance(rhos)
	predicted := stats.Mean(vars)
	if empirical <= 0 || predicted <= 0 {
		t.Fatal("degenerate variances")
	}
	ratio := predicted / empirical
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("variance ratio predicted/empirical = %v (pred %v, emp %v)",
			ratio, predicted, empirical)
	}
}

func TestJoinEstimateUnbiased(t *testing.T) {
	db := synthDB(4000, 4000, 20, 5)
	cat := catalog.Build(db)
	plan := joinPlan()
	truth := trueSelectivity(t, db, plan)

	var rhos []float64
	for seed := int64(0); seed < 30; seed++ {
		sdb, err := Build(db, 0.05, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		est, err := Estimate(plan, sdb, cat)
		if err != nil {
			t.Fatal(err)
		}
		rhos = append(rhos, est.Ops[plan.ID].Rho)
	}
	m := stats.Mean(rhos)
	if math.Abs(m-truth)/truth > 0.15 {
		t.Errorf("mean join estimate %v vs truth %v", m, truth)
	}
}

// The central variance property for joins: across many independent
// samples, the S^2_n-based variance estimate tracks the empirical
// variance of rho_n.
func TestJoinVarianceEstimateMatchesEmpirical(t *testing.T) {
	db := synthDB(2500, 2500, 20, 6)
	cat := catalog.Build(db)
	plan := joinPlan()

	var rhos, vars []float64
	for seed := int64(0); seed < 60; seed++ {
		sdb, err := Build(db, 0.03, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		est, err := Estimate(plan, sdb, cat)
		if err != nil {
			t.Fatal(err)
		}
		e := est.Ops[plan.ID]
		rhos = append(rhos, e.Rho)
		vars = append(vars, e.Var)
	}
	empirical := stats.Variance(rhos)
	predicted := stats.Mean(vars)
	ratio := predicted / empirical
	if ratio < 0.3 || ratio > 3.0 {
		t.Errorf("join variance ratio = %v (pred %v, emp %v)", ratio, predicted, empirical)
	}
}

func TestJoinLeafComponentsSumToVar(t *testing.T) {
	db := synthDB(3000, 3000, 15, 7)
	cat := catalog.Build(db)
	plan := joinPlan()
	sdb, err := Build(db, 0.05, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimate(plan, sdb, cat)
	if err != nil {
		t.Fatal(err)
	}
	e := est.Ops[plan.ID]
	var sum float64
	for _, w := range e.LeafComp {
		sum += w
	}
	if math.Abs(sum-e.Var) > 1e-15*math.Max(1, e.Var) {
		t.Errorf("leaf components sum %v != Var %v", sum, e.Var)
	}
	if len(e.LeafComp) != 2 {
		t.Errorf("leaf run: %v", e.LeafComp)
	}
}

func TestEmptyJoinGetsFloorNotZero(t *testing.T) {
	// Disjoint join domains: sample join certainly empty.
	db := engine.NewDB()
	rt, st := engine.NewTable("r", []string{"a", "b"}, 500), engine.NewTable("s", []string{"c", "d"}, 500)
	for i := range 500 {
		rt.Data[0][i], rt.Data[1][i] = int64(i), 1
		st.Data[0][i], st.Data[1][i] = int64(i), 2
	}
	db.Add(rt)
	db.Add(st)
	cat := catalog.Build(db)
	plan := joinPlan()
	sdb, err := Build(db, 0.1, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimate(plan, sdb, cat)
	if err != nil {
		t.Fatal(err)
	}
	e := est.Ops[plan.ID]
	if e.Rho <= 0 || e.Var <= 0 {
		t.Errorf("empty join: rho=%v var=%v, want positive floor", e.Rho, e.Var)
	}
}

func TestAggregateFallsBackToOptimizer(t *testing.T) {
	db := synthDB(5000, 100, 10, 10)
	cat := catalog.Build(db)
	plan := &engine.Node{Kind: engine.Aggregate, GroupCol: "b",
		Left: &engine.Node{Kind: engine.SeqScan, Table: "r"}}
	plan.Finalize()
	sdb, err := Build(db, 0.05, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimate(plan, sdb, cat)
	if err != nil {
		t.Fatal(err)
	}
	e := est.Ops[plan.ID]
	if !e.FromOptimizer || e.Var != 0 {
		t.Errorf("aggregate: FromOptimizer=%v Var=%v", e.FromOptimizer, e.Var)
	}
	// rho is the optimizer's cardinality over |r| = 5000 rows.
	if card := e.Rho * 5000; card < 5 || card > 15 {
		t.Errorf("aggregate card %v, want ~10 groups", card)
	}
}

func TestPassThroughSharesVariable(t *testing.T) {
	db := synthDB(5000, 100, 10, 12)
	cat := catalog.Build(db)
	plan := &engine.Node{Kind: engine.Sort,
		Left: &engine.Node{Kind: engine.SeqScan, Table: "r",
			Preds: []engine.Predicate{{Col: "b", Op: engine.Le, Lo: 4}}}}
	plan.Finalize()
	sdb, err := Build(db, 0.05, 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimate(plan, sdb, cat)
	if err != nil {
		t.Fatal(err)
	}
	sortE := est.Ops[plan.ID]
	scanE := est.Ops[plan.Left.ID]
	if sortE.Rho != scanE.Rho || sortE.Var != scanE.Var {
		t.Errorf("sort estimate (%v,%v) differs from scan (%v,%v)",
			sortE.Rho, sortE.Var, scanE.Rho, scanE.Var)
	}
}

func TestSampleCountsPopulated(t *testing.T) {
	db := synthDB(5000, 5000, 10, 16)
	cat := catalog.Build(db)
	plan := joinPlan()
	sdb, err := Build(db, 0.05, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimate(plan, sdb, cat)
	if err != nil {
		t.Fatal(err)
	}
	total := est.TotalSampleCounts()
	if total.NT <= 0 || total.NS <= 0 {
		t.Errorf("sample counts empty: %+v", total)
	}
	// Sample-run cost must be far below the full-run cost: the full join
	// emits ~2.5M tuples here, the sample run a few thousand.
	if total.NT > 100000 {
		t.Errorf("sample NT=%v suspiciously large", total.NT)
	}
}

// trueSelectivity executes the plan on the full database.
func trueSelectivity(t *testing.T, db *engine.DB, plan *engine.Node) float64 {
	t.Helper()
	res, err := engine.Run(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	return res.Selectivity
}

// threeWayDB builds three two-column tables of n rows over a domain of
// dom values, and the chain join t1.b1 = t2.a2, t2.b2 = t3.a3 over them.
func threeWayDB(seed int64, n, dom int) (*engine.DB, *engine.Node) {
	r := rand.New(rand.NewSource(seed))
	mk := func(name, c1, c2 string) *engine.Table {
		t := engine.NewTable(name, []string{c1, c2}, n)
		for i := range n {
			t.Data[0][i], t.Data[1][i] = int64(r.Intn(dom)), int64(r.Intn(dom))
		}
		return t
	}
	db := engine.NewDB()
	db.Add(mk("t1", "a1", "b1"))
	db.Add(mk("t2", "a2", "b2"))
	db.Add(mk("t3", "a3", "b3"))
	plan := &engine.Node{
		Kind: engine.HashJoin, LeftCol: "b2", RightCol: "a3",
		Left: &engine.Node{
			Kind: engine.HashJoin, LeftCol: "b1", RightCol: "a2",
			Left:  &engine.Node{Kind: engine.SeqScan, Table: "t1"},
			Right: &engine.Node{Kind: engine.SeqScan, Table: "t2"},
		},
		Right: &engine.Node{Kind: engine.SeqScan, Table: "t3"},
	}
	plan.Finalize()
	return db, plan
}

// threeWaySelectivity is the true selectivity of threeWayDB's chain join,
// counted from key frequencies: every t2 row (a2, b2) joins with
// #{t1: b1 = a2} * #{t3: a3 = b2} row pairs. It never materializes the
// result, which at 2000 rows per table is ~55M rows.
func threeWaySelectivity(db *engine.DB) float64 {
	t1, t2, t3 := db.Tables["t1"], db.Tables["t2"], db.Tables["t3"]
	b1, a3 := map[int64]float64{}, map[int64]float64{}
	for _, v := range t1.Data[1] {
		b1[v]++
	}
	for _, v := range t3.Data[0] {
		a3[v]++
	}
	var m float64
	for i, a2 := range t2.Data[0] {
		m += b1[a2] * a3[t2.Data[1][i]]
	}
	return m / (float64(t1.NumRows()) * float64(t2.NumRows()) * float64(t3.NumRows()))
}

// The counted ground truth is the engine's: on an instance small enough to
// execute, both give the same selectivity.
func TestThreeWaySelectivityMatchesEngine(t *testing.T) {
	db, plan := threeWayDB(18, 200, 12)
	if got, want := threeWaySelectivity(db), trueSelectivity(t, db, plan); got != want {
		t.Errorf("counted selectivity %v, engine %v", got, want)
	}
}

func TestThreeWayJoinEstimate(t *testing.T) {
	db, plan := threeWayDB(18, 2000, 12)
	cat := catalog.Build(db)
	truth := threeWaySelectivity(db)

	sdb, err := Build(db, 0.08, 2, 19)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimate(plan, sdb, cat)
	if err != nil {
		t.Fatal(err)
	}
	e := est.Ops[plan.ID]
	if e.Rho <= 0 {
		t.Fatal("zero three-way estimate")
	}
	if math.Abs(e.Rho-truth)/truth > 0.8 {
		t.Errorf("three-way estimate %v vs truth %v", e.Rho, truth)
	}
	if len(e.LeafComp) != 3 {
		t.Errorf("leaf components %v, want 3 entries", e.LeafComp)
	}
	// Inner join estimate also present.
	if _, err := est.Get(plan.Left); err != nil {
		t.Error(err)
	}
}
