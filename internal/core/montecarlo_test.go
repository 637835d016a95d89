package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/hardware"
	"repro/internal/sample"
	"repro/internal/stats"
)

// TestMonteCarloMatchesAnalyticOnScan validates the analytic propagation
// end to end: for a plan whose cost functions share a single selectivity
// variable (no cross-operator covariance bounds involved), the
// Monte-Carlo distribution must agree with the analytic normal in both
// moments.
func TestMonteCarloMatchesAnalyticOnScan(t *testing.T) {
	f := newFixture(t, All)
	plan := &engine.Node{Kind: engine.Sort,
		Left: &engine.Node{Kind: engine.IndexScan, Table: "lineitem",
			Preds: []engine.Predicate{{Col: "l_quantity", Op: engine.Le, Lo: 3}}}}
	plan.Finalize()
	pred, _ := f.predict(t, plan, 0.05, 41)
	est := f.estimates(t, plan, 0.05, 41)
	mc, err := f.pred.PredictMonteCarlo(plan, est, MCOptions{Draws: 60000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sigmaRatio, meanDiff, err := mc.CompareAnalytic(pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(meanDiff) > 0.02 {
		t.Errorf("MC mean %v vs analytic %v (rel diff %v)", mc.Mean(), pred.Mean(), meanDiff)
	}
	if sigmaRatio < 0.9 || sigmaRatio > 1.1 {
		t.Errorf("MC sigma %v vs analytic %v (ratio %v)", mc.Sigma(), pred.Sigma(), sigmaRatio)
	}
}

// TestMonteCarloVsAnalyticJoin checks the documented dominance: on plans
// with nested (correlated) selectivity estimates the analytic variance
// uses conservative upper bounds, so it must not fall below the
// independent-draw Monte-Carlo variance by more than sampling noise.
func TestMonteCarloVsAnalyticJoin(t *testing.T) {
	f := newFixture(t, All)
	plan := threeWayQuery()
	pred, _ := f.predict(t, plan, 0.05, 43)
	est := f.estimates(t, plan, 0.05, 43)
	mc, err := f.pred.PredictMonteCarlo(plan, est, MCOptions{Draws: 40000, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Sigma() < 0.9*mc.Sigma() {
		t.Errorf("analytic sigma %v below MC sigma %v", pred.Sigma(), mc.Sigma())
	}
	// Means agree regardless of covariance treatment.
	if rel := math.Abs(mc.Mean()-pred.Mean()) / pred.Mean(); rel > 0.05 {
		t.Errorf("MC mean %v vs analytic %v", mc.Mean(), pred.Mean())
	}
}

func TestMonteCarloQuantilesMonotone(t *testing.T) {
	f := newFixture(t, All)
	plan := joinQuery()
	est := f.estimates(t, plan, 0.05, 45)
	mc, err := f.pred.PredictMonteCarlo(plan, est, MCOptions{Draws: 5000, Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	qs := []float64{0.05, 0.25, 0.5, 0.75, 0.95}
	prev := math.Inf(-1)
	for _, q := range qs {
		v := mc.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at %v: %v < %v", q, v, prev)
		}
		prev = v
	}
	if mc.Quantile(0) != mc.Samples[0] || mc.Quantile(1) != mc.Samples[len(mc.Samples)-1] {
		t.Error("extreme quantiles wrong")
	}
}

func TestMonteCarloProb(t *testing.T) {
	f := newFixture(t, All)
	plan := joinQuery()
	est := f.estimates(t, plan, 0.05, 47)
	mc, err := f.pred.PredictMonteCarlo(plan, est, MCOptions{Draws: 5000, Seed: 48})
	if err != nil {
		t.Fatal(err)
	}
	all := mc.Prob(mc.Samples[0], mc.Samples[len(mc.Samples)-1])
	if all != 1 {
		t.Errorf("full-range prob %v, want 1", all)
	}
	if mc.Prob(1, 0) != 0 {
		t.Error("inverted-range prob not 0")
	}
	half := mc.Prob(math.Inf(-1), mc.Quantile(0.5))
	if math.Abs(half-0.5) > 0.02 {
		t.Errorf("prob up to median = %v", half)
	}
}

func TestMonteCarloDeterministicPerSeed(t *testing.T) {
	f := newFixture(t, All)
	plan := scanQuery()
	est := f.estimates(t, plan, 0.05, 49)
	a, err := f.pred.PredictMonteCarlo(plan, est, MCOptions{Draws: 2000, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.pred.PredictMonteCarlo(plan, est, MCOptions{Draws: 2000, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean() != b.Mean() || a.Variance != b.Variance {
		t.Error("MC not deterministic per seed")
	}
}

func TestMonteCarloVariantConsistency(t *testing.T) {
	// Under NoVarC + NoVarX... both sources off is not a variant; use
	// NoVarX: MC variance should then come only from the unit draws.
	fAll := newFixture(t, All)
	fNoX := newFixture(t, NoVarX)
	plan := joinQuery()
	estAll := fAll.estimates(t, plan, 0.02, 51)
	estNoX := fNoX.estimates(t, plan, 0.02, 51)
	mcAll, err := fAll.pred.PredictMonteCarlo(plan, estAll, MCOptions{Draws: 20000, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	mcNoX, err := fNoX.pred.PredictMonteCarlo(plan, estNoX, MCOptions{Draws: 20000, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	if mcNoX.Variance > mcAll.Variance*1.05 {
		t.Errorf("NoVarX MC variance %v exceeds All %v", mcNoX.Variance, mcAll.Variance)
	}
}

// TestMonteCarloMomentsMatchDirect checks the running (Welford) moments
// against a direct two-pass computation over the sample slice: the
// reported mean and variance must agree with the textbook formulas
// applied to MCPrediction.Samples.
func TestMonteCarloMomentsMatchDirect(t *testing.T) {
	f := newFixture(t, All)
	plan := joinQuery()
	est := f.estimates(t, plan, 0.05, 63)
	mc, err := f.pred.PredictMonteCarlo(plan, est, MCOptions{Draws: 8269, Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range mc.Samples {
		sum += s
	}
	mean := sum / float64(len(mc.Samples))
	var ss float64
	for _, s := range mc.Samples {
		d := s - mean
		ss += d * d
	}
	variance := ss / float64(len(mc.Samples)-1)
	if rel := math.Abs(mc.MeanVal-mean) / mean; rel > 1e-12 {
		t.Errorf("running mean %v vs direct %v (rel %v)", mc.MeanVal, mean, rel)
	}
	if rel := math.Abs(mc.Variance-variance) / variance; rel > 1e-9 {
		t.Errorf("running variance %v vs direct %v (rel %v)", mc.Variance, variance, rel)
	}
}

// TestMCAccumEdgeCases pins the degenerate behaviors of the
// accumulator: no observations, a single one, and constant
// (zero-variance) data.
func TestMCAccumEdgeCases(t *testing.T) {
	var empty mcAccum
	if v := empty.variance(); v != 0 {
		t.Errorf("empty variance = %v", v)
	}

	var a mcAccum
	a.add(3)
	if a.variance() != 0 || a.mean != 3 {
		t.Errorf("single-element accum: mean %v var %v", a.mean, a.variance())
	}

	var c mcAccum
	for i := 0; i < 100; i++ {
		c.add(7)
	}
	if c.variance() != 0 || c.mean != 7 {
		t.Errorf("constant data: mean %v var %v", c.mean, c.variance())
	}
}

// estimates runs the sampling pass for a plan, mirroring fixture.predict
// without the prediction step.
func (f *fixture) estimates(t *testing.T, plan *engine.Node, ratio float64, seed int64) *sample.Estimates {
	t.Helper()
	sdb, err := sample.Build(f.db, ratio, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	est, err := sample.Estimate(plan, sdb, f.cat)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestMonteCarloRejectsMismatchedEstimates: the Monte-Carlo path runs the
// same up-front check as Predict (which the root package tests through
// the public Predictor stage) before it indexes anything by node ID.
func TestMonteCarloRejectsMismatchedEstimates(t *testing.T) {
	f := newFixture(t, All)
	scan, join := scanQuery(), joinQuery()
	for name, c := range map[string]struct{ plan, estOf *engine.Node }{
		"fewer": {join, scan}, "more": {scan, join},
	} {
		est := f.estimates(t, c.estOf, 0.05, 50)
		if mc, err := f.pred.PredictMonteCarlo(c.plan, est, MCOptions{Draws: 10, Seed: 51}); err == nil {
			t.Errorf("%s operators than the plan: nil error, mean %v", name, mc.Mean())
		}
	}
}

// TestMonteCarloDrawsClampedIndexScan pins the Monte-Carlo stream on an
// index scan whose probe interval lies past its clamp: the fetch count is
// the whole table there, so every X-dependent function is C2 {0, k·SizeL}
// and the scan's variable appears only with zero coefficients. It is
// still drawn — every variable of every nonzero function is — so the
// unit draws that follow keep their place in the RNG stream. The
// literals were taken before the predictor cached its terms.
func TestMonteCarloDrawsClampedIndexScan(t *testing.T) {
	f := newFixture(t, All)
	plan := &engine.Node{Kind: engine.IndexScan, Table: "lineitem",
		Preds: []engine.Predicate{
			{Col: "l_orderkey", Op: engine.Ge, Lo: 0},
			{Col: "l_quantity", Op: engine.Le, Lo: 25},
		}}
	plan.Finalize()
	est := &sample.Estimates{Ops: []sample.OpEstimate{{
		Rho: 0.9, Var: 1e-4, LeafComp: []float64{1e-4},
	}}}
	models, err := costmodel.BuildModels(nil, plan, f.cat, []float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	vars := []stats.Normal{stats.NormalFromVar(0.9, 1e-4)}
	funcs, err := costmodel.FitNode(&models[0], vars)
	if err != nil {
		t.Fatal(err)
	}
	if cr := funcs[hardware.CR]; cr.Kind.String() != "C2" || cr.B[0] != 0 || cr.B[1] == 0 {
		t.Fatalf("CR = %v %v, want C2 {0, SizeL}: the fixture no longer crosses the clamp", cr.Kind, cr.B)
	}
	mc, err := f.pred.PredictMonteCarlo(plan, est, MCOptions{Draws: 2000, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	const wantMean, wantVar = "0x1.55f01da614f1bp+03", "0x1.0bb8fa5c1c1ffp+03"
	if got := fmt.Sprintf("%x", mc.MeanVal); got != wantMean {
		t.Errorf("mean %s, pinned %s", got, wantMean)
	}
	if got := fmt.Sprintf("%x", mc.Variance); got != wantVar {
		t.Errorf("variance %s, pinned %s", got, wantVar)
	}
}
