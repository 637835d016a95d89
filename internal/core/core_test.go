package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/calibrate"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/stats"
)

type fixture struct {
	db   *engine.DB
	cat  *catalog.Catalog
	hw   *hardware.Profile
	pred *Predictor
}

func newFixture(t *testing.T, variant Variant) *fixture {
	t.Helper()
	db := datagen.Generate(datagen.Config{ScaleFactor: 0.002, Seed: 1})
	cat := catalog.Build(db)
	hw := hardware.PC1()
	cal, err := calibrate.Run(hw, calibrate.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		db:   db,
		cat:  cat,
		hw:   hw,
		pred: New(cat, cal.Units, variant),
	}
}

func (f *fixture) predict(t *testing.T, plan *engine.Node, ratio float64, seed int64) (*Prediction, *engine.OpResult) {
	t.Helper()
	sdb, err := sample.Build(f.db, ratio, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	est, err := sample.Estimate(plan, sdb, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := f.pred.Predict(plan, est)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(f.db, plan)
	if err != nil {
		t.Fatal(err)
	}
	return pred, res
}

func scanQuery() *engine.Node {
	p := &engine.Node{Kind: engine.SeqScan, Table: "lineitem",
		Preds: []engine.Predicate{{Col: "l_quantity", Op: engine.Le, Lo: 25}}}
	p.Finalize()
	return p
}

func joinQuery() *engine.Node {
	p := &engine.Node{
		Kind: engine.HashJoin, LeftCol: "o_orderkey", RightCol: "l_orderkey",
		Left: &engine.Node{Kind: engine.SeqScan, Table: "orders",
			Preds: []engine.Predicate{{Col: "o_orderdate", Op: engine.Le, Lo: datagen.DateDays / 2}}},
		Right: &engine.Node{Kind: engine.SeqScan, Table: "lineitem"},
	}
	p.Finalize()
	return p
}

func threeWayQuery() *engine.Node {
	p := &engine.Node{
		Kind: engine.HashJoin, LeftCol: "l_suppkey", RightCol: "s_suppkey",
		Left: &engine.Node{
			Kind: engine.HashJoin, LeftCol: "o_orderkey", RightCol: "l_orderkey",
			Left: &engine.Node{Kind: engine.SeqScan, Table: "orders",
				Preds: []engine.Predicate{{Col: "o_totalprice", Op: engine.Le, Lo: 30000}}},
			Right: &engine.Node{Kind: engine.SeqScan, Table: "lineitem"},
		},
		Right: &engine.Node{Kind: engine.SeqScan, Table: "supplier"},
	}
	p.Finalize()
	return p
}

func TestPredictScanMeanTracksActual(t *testing.T) {
	f := newFixture(t, All)
	plan := scanQuery()
	pred, res := f.predict(t, plan, 0.05, 3)
	actual := f.hw.MeasurePlanSeeded(res, rng.V1, 4)
	if pred.Mean() <= 0 || pred.Sigma() <= 0 {
		t.Fatalf("degenerate prediction %v", pred.Dist)
	}
	rel := math.Abs(pred.Mean()-actual) / actual
	if rel > 0.5 {
		t.Errorf("scan: predicted %v vs actual %v (rel %.2f)", pred.Mean(), actual, rel)
	}
}

func TestPredictJoinMeanTracksActual(t *testing.T) {
	f := newFixture(t, All)
	plan := joinQuery()
	pred, res := f.predict(t, plan, 0.05, 5)
	actual := f.hw.MeasurePlanSeeded(res, rng.V1, 6)
	rel := math.Abs(pred.Mean()-actual) / actual
	if rel > 1.0 {
		t.Errorf("join: predicted %v vs actual %v (rel %.2f)", pred.Mean(), actual, rel)
	}
}

func TestPerOperatorMeansSumToTotal(t *testing.T) {
	f := newFixture(t, All)
	plan := threeWayQuery()
	pred, _ := f.predict(t, plan, 0.05, 7)
	var sum float64
	for _, op := range pred.PerOperator {
		sum += op.Mean
	}
	if math.Abs(sum-pred.Mean()) > 1e-9*math.Max(1, pred.Mean()) {
		t.Errorf("per-operator means sum %v != total %v", sum, pred.Mean())
	}
	if len(pred.PerOperator) != len(plan.Nodes()) {
		t.Errorf("per-operator entries %d, want %d", len(pred.PerOperator), len(plan.Nodes()))
	}
}

func TestVarianceShrinksWithSampleSize(t *testing.T) {
	f := newFixture(t, All)
	plan := joinQuery()
	// Average over several sample seeds to smooth sampling noise.
	avgVar := func(ratio float64) float64 {
		var s float64
		for seed := int64(0); seed < 5; seed++ {
			pred, _ := f.predict(t, plan, ratio, 100+seed)
			s += pred.Dist.Var()
		}
		return s / 5
	}
	small, large := avgVar(0.01), avgVar(0.15)
	if large >= small {
		t.Errorf("variance did not shrink: SR=0.01 -> %v, SR=0.15 -> %v", small, large)
	}
}

func TestVariantOrdering(t *testing.T) {
	// Dropping a source of uncertainty can only reduce (or keep) the
	// predicted variance: Var(All) >= Var(NoVarC), Var(NoVarX), Var(NoCov).
	preds := make(map[Variant]float64)
	for _, v := range []Variant{All, NoVarC, NoVarX, NoCov} {
		f := newFixture(t, v)
		plan := threeWayQuery()
		pred, _ := f.predict(t, plan, 0.03, 11)
		preds[v] = pred.Dist.Var()
	}
	if preds[All] < preds[NoVarC] || preds[All] < preds[NoVarX] || preds[All] < preds[NoCov] {
		t.Errorf("variant variances: %v", preds)
	}
	if preds[NoVarC] <= 0 && preds[NoVarX] <= 0 {
		t.Error("both ablations degenerate; expected at least one positive")
	}
}

func TestNoVarCKillsUnitVariance(t *testing.T) {
	// With deterministic selectivities AND NoVarC, variance must be ~0.
	f := newFixture(t, NoVarC)
	f.pred.Variant = NoVarC
	plan := scanQuery()
	// A pure seq scan has constant cost functions: all X-variance is
	// irrelevant, so NoVarC alone should zero the variance.
	pred, _ := f.predict(t, plan, 0.05, 13)
	if pred.Dist.Var() > 1e-18 {
		t.Errorf("NoVarC seq-scan variance = %v, want ~0", pred.Dist.Var())
	}
}

func TestMeansAgreeAcrossVariants(t *testing.T) {
	// NoVarC and NoCov change only the variance, never the point
	// estimate. NoVarX may shift the mean slightly because E[X^2] and
	// E[Xl*Xr] lose their second-moment corrections.
	var means []float64
	for _, v := range []Variant{All, NoVarC, NoCov, NoVarX} {
		f := newFixture(t, v)
		plan := joinQuery()
		pred, _ := f.predict(t, plan, 0.05, 17)
		means = append(means, pred.Mean())
	}
	for i := 1; i < 3; i++ {
		if math.Abs(means[i]-means[0]) > 1e-6*means[0] {
			t.Errorf("means differ across variants: %v", means)
		}
	}
	if math.Abs(means[3]-means[0]) > 0.1*means[0] {
		t.Errorf("NoVarX mean %v too far from All mean %v", means[3], means[0])
	}
}

func TestPredictionDeterministic(t *testing.T) {
	f := newFixture(t, All)
	plan := threeWayQuery()
	p1, _ := f.predict(t, plan, 0.05, 19)
	p2, _ := f.predict(t, plan, 0.05, 19)
	if p1.Dist != p2.Dist {
		t.Errorf("predictions differ: %v vs %v", p1.Dist, p2.Dist)
	}
}

func TestCovarianceBoundNonNegative(t *testing.T) {
	f := newFixture(t, All)
	plan := threeWayQuery()
	pred, _ := f.predict(t, plan, 0.03, 23)
	if pred.CovBound < 0 {
		t.Errorf("covariance bound mass %v < 0", pred.CovBound)
	}
}

func TestNoCovNeverExceedsAll(t *testing.T) {
	fAll := newFixture(t, All)
	fNoCov := newFixture(t, NoCov)
	plan := threeWayQuery()
	pAll, _ := fAll.predict(t, plan, 0.03, 29)
	pNoCov, _ := fNoCov.predict(t, plan, 0.03, 29)
	if pNoCov.Dist.Var() > pAll.Dist.Var()+1e-18 {
		t.Errorf("NoCov variance %v exceeds All %v", pNoCov.Dist.Var(), pAll.Dist.Var())
	}
}

func TestIntervalAndAccessors(t *testing.T) {
	f := newFixture(t, All)
	plan := joinQuery()
	pred, _ := f.predict(t, plan, 0.05, 31)
	lo, hi := pred.Interval(0.95)
	if lo >= hi || hi <= pred.Mean() || lo >= pred.Mean() {
		t.Errorf("interval [%v, %v] around mean %v", lo, hi, pred.Mean())
	}
	if pred.Sigma() != pred.Dist.Sigma {
		t.Error("Sigma accessor mismatch")
	}
}

// Calibration-style check: over repeated sample draws, the spread of the
// point estimates should be on the same order as the predicted sigma
// (the "self-awareness" the paper describes, Section 6.3.2 baseline).
func TestPredictedSigmaTracksEstimateSpread(t *testing.T) {
	f := newFixture(t, NoVarC) // isolate the selectivity-driven variance
	plan := joinQuery()
	var means, sigmas []float64
	for seed := int64(0); seed < 25; seed++ {
		pred, _ := f.predict(t, plan, 0.02, 200+seed)
		means = append(means, pred.Mean())
		sigmas = append(sigmas, pred.Sigma())
	}
	spread := math.Sqrt(stats.Variance(means))
	avgSigma := stats.Mean(sigmas)
	if avgSigma <= 0 || spread <= 0 {
		t.Fatalf("degenerate: spread=%v sigma=%v", spread, avgSigma)
	}
	ratio := avgSigma / spread
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("predicted sigma %v vs estimate spread %v (ratio %v)",
			avgSigma, spread, ratio)
	}
}

func TestPredictWithAggregatePlan(t *testing.T) {
	f := newFixture(t, All)
	plan := &engine.Node{Kind: engine.Aggregate, GroupCol: "l_returnflag",
		Left: &engine.Node{Kind: engine.Sort,
			Left: &engine.Node{Kind: engine.SeqScan, Table: "lineitem",
				Preds: []engine.Predicate{{Col: "l_shipdate", Op: engine.Le, Lo: 1500}}}}}
	plan.Finalize()
	pred, res := f.predict(t, plan, 0.05, 37)
	actual := f.hw.MeasurePlanSeeded(res, rng.V1, 38)
	if pred.Mean() <= 0 {
		t.Fatal("non-positive mean")
	}
	rel := math.Abs(pred.Mean()-actual) / actual
	if rel > 1.0 {
		t.Errorf("aggregate plan: predicted %v vs actual %v", pred.Mean(), actual)
	}
}

func TestVariantStrings(t *testing.T) {
	want := map[Variant]string{All: "All", NoVarC: "NoVar[c]", NoVarX: "NoVar[X]", NoCov: "NoCov"}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %s, want %s", int(v), v.String(), s)
		}
	}
}

// TestPassOwnsItsRowsUnderPredict pins the sharing contract of the
// sample → core hand-off: one memoized Pass spliced into two plans at
// different leaf offsets hands both the same LeafComp array (only
// LeafOff is a plan's own), and predicting either plan — both at once,
// under every variant, so the race detector sees any write — leaves it
// as the Pass made it.
func TestPassOwnsItsRowsUnderPredict(t *testing.T) {
	f := newFixture(t, All)
	sdb, err := sample.Build(f.db, 0.05, 2, 47)
	if err != nil {
		t.Fatal(err)
	}
	shared := func() *engine.Node {
		return &engine.Node{
			Kind: engine.HashJoin, LeftCol: "o_orderkey", RightCol: "l_orderkey",
			Left: &engine.Node{Kind: engine.SeqScan, Table: "orders",
				Preds: []engine.Predicate{{Col: "o_totalprice", Op: engine.Le, Lo: 30000}}},
			Right: &engine.Node{Kind: engine.SeqScan, Table: "lineitem"},
		}
	}
	// The shared join's leaves are ordinals 0-1 of the first plan and 1-2
	// of the second.
	first := &engine.Node{Kind: engine.HashJoin, LeftCol: "l_suppkey", RightCol: "s_suppkey",
		Left: shared(), Right: &engine.Node{Kind: engine.SeqScan, Table: "supplier"}}
	second := &engine.Node{Kind: engine.HashJoin, LeftCol: "s_suppkey", RightCol: "l_suppkey",
		Left: &engine.Node{Kind: engine.SeqScan, Table: "supplier"}, Right: shared()}
	first.Finalize()
	second.Finalize()

	passes := make(map[string]*sample.Pass)
	memo := func(key string, compute func() (*sample.Pass, error)) (*sample.Pass, error) {
		if p, ok := passes[key]; ok {
			return p, nil
		}
		p, err := compute()
		if err == nil {
			passes[key] = p
		}
		return p, err
	}
	estFirst, err := sample.EstimateMemo(context.Background(), first, sdb, f.cat, memo)
	if err != nil {
		t.Fatal(err)
	}
	estSecond, err := sample.EstimateMemo(context.Background(), second, sdb, f.cat, memo)
	if err != nil {
		t.Fatal(err)
	}
	a, b := &estFirst.Ops[first.Left.ID], &estSecond.Ops[second.Right.ID]
	if a.LeafOff != 0 || b.LeafOff != 1 || len(a.LeafComp) != 2 {
		t.Fatalf("shared join spliced at offsets %d and %d with %d leaves, want 0 and 1 with 2",
			a.LeafOff, b.LeafOff, len(a.LeafComp))
	}
	if &a.LeafComp[0] != &b.LeafComp[0] {
		t.Fatal("the two plans hold copies of the shared Pass's leaf slice, not the slice")
	}
	comp := slices.Clone(a.LeafComp)

	var wg sync.WaitGroup
	for _, c := range []struct {
		root *engine.Node
		est  *sample.Estimates
	}{{first, estFirst}, {second, estSecond}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range []Variant{All, NoVarC, NoVarX, NoCov} {
				p := New(f.cat, f.pred.Units, v)
				if _, err := p.Predict(c.root, c.est); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := f.pred.PredictMonteCarlo(c.root, c.est, MCOptions{Draws: 200, Seed: 48}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(a.LeafComp, comp) {
		t.Error("a prediction wrote to the Pass's leaf slice")
	}
}

// TestPredictAboveMidTreeAggregate runs the estimates of a join above an
// aggregate — tainted by it, so its leaf run is empty — through the
// up-front estimate check and the predictor.
func TestPredictAboveMidTreeAggregate(t *testing.T) {
	f := newFixture(t, All)
	plan := &engine.Node{
		Kind: engine.HashJoin, LeftCol: "l_suppkey", RightCol: "s_suppkey",
		Left: &engine.Node{Kind: engine.Aggregate, GroupCol: "l_suppkey",
			Left: &engine.Node{Kind: engine.SeqScan, Table: "lineitem"}},
		Right: &engine.Node{Kind: engine.SeqScan, Table: "supplier"},
	}
	plan.Finalize()
	pred, err := f.pred.Predict(plan, f.estimates(t, plan, 0.05, 49))
	if err != nil {
		t.Fatal(err)
	}
	if pred.Mean() <= 0 || len(pred.PerOperator) != 4 {
		t.Errorf("mean %v over %d operators", pred.Mean(), len(pred.PerOperator))
	}
}
