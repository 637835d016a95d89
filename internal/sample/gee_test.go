package sample

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
)

func TestGEEAllDistinct(t *testing.T) {
	// Every sample value unique: D = sqrt(N/n) * n = sqrt(N*n).
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	got := GEE(vals, 10000)
	want := math.Sqrt(10000.0/100) * 100
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("GEE = %v, want %v", got, want)
	}
}

func TestGEEAllSame(t *testing.T) {
	vals := make([]int64, 100)
	got := GEE(vals, 10000)
	if got != 1 {
		t.Errorf("GEE on constant sample = %v, want 1", got)
	}
}

func TestGEECappedByTotal(t *testing.T) {
	vals := make([]int64, 50)
	for i := range vals {
		vals[i] = int64(i)
	}
	if got := GEE(vals, 40); got > 40 {
		t.Errorf("GEE = %v exceeds population size 40", got)
	}
}

func TestGEEEmptyInput(t *testing.T) {
	if got := GEE(nil, 100); got != 0 {
		t.Errorf("GEE(nil) = %v", got)
	}
}

func TestGEERecoverUniformDistinct(t *testing.T) {
	// Population: 100k values over 500 distinct, uniform; a 2% sample
	// should estimate ~500 within a factor of 2 (GEE's guarantee band is
	// sqrt(N/n), so exactness is not expected).
	r := rand.New(rand.NewSource(1))
	sample := make([]int64, 2000)
	for i := range sample {
		sample[i] = int64(r.Intn(500))
	}
	got := GEE(sample, 100000)
	if got < 250 || got > 1000 {
		t.Errorf("GEE = %v, want within [250, 1000] around 500", got)
	}
}

func TestAggEstimatorStrings(t *testing.T) {
	if OptimizerAgg.String() != "optimizer" || GEEAgg.String() != "GEE" {
		t.Error("AggEstimator strings wrong")
	}
}

// TestGEEBeatsOptimizerOnFilteredGroups is the motivating scenario: a
// selective filter shrinks the set of groups actually present, which the
// catalog's whole-table distinct count cannot see.
func TestGEEBeatsOptimizerOnFilteredGroups(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n := 40000
	rows := make([][]int64, n)
	for i := range rows {
		g := int64(r.Intn(2000)) // group key, 2000 distinct overall
		f := g % 100             // filter column correlated with group
		rows[i] = []int64{g, f}
	}
	db := engine.NewDB()
	db.Add(engine.NewTable("t", []string{"g", "f"}, rows))
	cat := catalog.Build(db)

	// Filter keeps only f < 5 -> only ~100 of the 2000 groups survive.
	plan := &engine.Node{Kind: engine.Aggregate, GroupCol: "g",
		Left: &engine.Node{Kind: engine.SeqScan, Table: "t",
			Preds: []engine.Predicate{{Col: "f", Op: engine.Lt, Lo: 5}}}}
	plan.Finalize()

	res, err := engine.Run(db, plan)
	if err != nil {
		t.Fatal(err)
	}
	truth := res.M // actual surviving groups

	sdb, err := Build(db, 0.05, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := EstimateWithOpts(plan, sdb, cat, Opts{Agg: OptimizerAgg})
	if err != nil {
		t.Fatal(err)
	}
	gee, err := EstimateWithOpts(plan, sdb, cat, Opts{Agg: GEEAgg})
	if err != nil {
		t.Fatal(err)
	}
	optErr := math.Abs(opt.Ops[plan.ID].EstCard - truth)
	geeErr := math.Abs(gee.Ops[plan.ID].EstCard - truth)
	if geeErr >= optErr {
		t.Errorf("GEE error %v (est %v) not below optimizer error %v (est %v), truth %v",
			geeErr, gee.Ops[plan.ID].EstCard, optErr, opt.Ops[plan.ID].EstCard, truth)
	}
}

func TestGEEScalarAggregate(t *testing.T) {
	db := synthDB(5000, 100, 10, 20)
	cat := catalog.Build(db)
	plan := &engine.Node{Kind: engine.Aggregate,
		Left: &engine.Node{Kind: engine.SeqScan, Table: "r"}}
	plan.Finalize()
	sdb, err := Build(db, 0.05, 1, 21)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateWithOpts(plan, sdb, cat, Opts{Agg: GEEAgg})
	if err != nil {
		t.Fatal(err)
	}
	if est.Ops[plan.ID].EstCard != 1 {
		t.Errorf("scalar aggregate card %v, want 1", est.Ops[plan.ID].EstCard)
	}
}
