package uaqetp

import (
	"context"
	"math"
	"testing"
)

func testSystem(t *testing.T) *System {
	t.Helper()
	cfg := DefaultConfig()
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func joinQuery() *Query {
	return &Query{
		Name:   "api-join",
		Tables: []string{"orders", "lineitem"},
		Preds: []Predicate{
			{Col: "o_totalprice", Op: Le, Lo: 25000},
		},
		Joins: []JoinCond{{
			LeftTable: "orders", LeftCol: "o_orderkey",
			RightTable: "lineitem", RightCol: "l_orderkey",
		}},
	}
}

func TestOpenDefaults(t *testing.T) {
	sys := testSystem(t)
	if len(sys.db.Tables) != 8 {
		t.Errorf("%d tables generated, want 8", len(sys.db.Tables))
	}
	if len(sys.CostUnits()) != 5 {
		t.Errorf("cost units: %v", sys.CostUnits())
	}
}

func TestOpenRejectsBadMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machine = "PC9"
	if _, err := Open(cfg); err == nil {
		t.Error("expected error for unknown machine")
	}
}

// TestSamplingRatioRejectsNaN: a NaN ratio fails every comparison, so
// each entry point must reject it rather than draw minimum-size samples.
func TestSamplingRatioRejectsNaN(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplingRatio = math.NaN()
	if _, err := Open(cfg); err == nil {
		t.Error("Open accepted a NaN sampling ratio")
	}
	if _, err := testSystem(t).WithSamplingRatio(math.NaN()); err == nil {
		t.Error("WithSamplingRatio accepted NaN")
	}
}

func TestPredictAndRun(t *testing.T) {
	sys := testSystem(t)
	pred, actual, err := sys.PredictAndRunContext(context.Background(), joinQuery())
	if err != nil {
		t.Fatal(err)
	}
	if pred.Mean() <= 0 || pred.Sigma() <= 0 || actual <= 0 {
		t.Fatalf("degenerate outcome: mean=%v sigma=%v actual=%v",
			pred.Mean(), pred.Sigma(), actual)
	}
	// Point estimate within 3x of actual for this simple FK join.
	ratio := pred.Mean() / actual
	if ratio < 1.0/3 || ratio > 3 {
		t.Errorf("prediction %v vs actual %v", pred.Mean(), actual)
	}
	lo, hi := pred.Interval(0.9)
	if lo >= hi {
		t.Errorf("interval [%v, %v]", lo, hi)
	}
}

func TestPlanRendering(t *testing.T) {
	sys := testSystem(t)
	s, err := sys.Plan(joinQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(s) == 0 {
		t.Error("empty plan string")
	}
}

func TestPredictUnknownTable(t *testing.T) {
	sys := testSystem(t)
	q := &Query{Name: "bad", Tables: []string{"nope"}}
	if _, err := sys.PredictContext(context.Background(), q); err == nil {
		t.Error("expected error")
	}
}

func TestProbabilityQueries(t *testing.T) {
	sys := testSystem(t)
	pred, err := sys.PredictContext(context.Background(), joinQuery())
	if err != nil {
		t.Fatal(err)
	}
	// P(T <= mean) must be 0.5 for a normal distribution.
	if p := pred.Dist.CDF(pred.Mean()); math.Abs(p-0.5) > 1e-9 {
		t.Errorf("CDF(mean) = %v", p)
	}
	if p := pred.Dist.CDF(pred.Mean()+pred.Sigma()) - pred.Dist.CDF(pred.Mean()-pred.Sigma()); math.Abs(p-0.6827) > 0.001 {
		t.Errorf("one-sigma mass = %v", p)
	}
}

func TestAlternativesAndChoosePlan(t *testing.T) {
	sys := testSystem(t)
	q := &Query{
		Name:   "choose",
		Tables: []string{"customer", "orders", "lineitem"},
		Preds:  []Predicate{{Col: "c_acctbal", Op: Le, Lo: 3000}},
		Joins: []JoinCond{
			{LeftTable: "customer", LeftCol: "c_custkey", RightTable: "orders", RightCol: "o_custkey"},
			{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"},
		},
	}
	choices, err := sys.AlternativesContext(context.Background(), q, WithMaxAlts(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) < 2 {
		t.Fatalf("got %d alternatives", len(choices))
	}
	best, all, err := sys.ChoosePlanContext(context.Background(), q, WithQuantile(0.9), WithMaxAlts(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(choices) {
		t.Errorf("ChoosePlan saw %d plans, Alternatives %d", len(all), len(choices))
	}
	for _, c := range all {
		if best.Pred.Dist.Quantile(0.9) > c.Pred.Dist.Quantile(0.9) {
			t.Errorf("chosen plan p90 %v above alternative %v",
				best.Pred.Dist.Quantile(0.9), c.Pred.Dist.Quantile(0.9))
		}
	}
}

func TestVariantsViaConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Variant = NoVarC
	sysC, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sysAll := testSystem(t)
	q := joinQuery()
	pAll, err := sysAll.PredictContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	pC, err := sysC.PredictContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if pC.Sigma() >= pAll.Sigma() {
		t.Errorf("NoVarC sigma %v not below All sigma %v", pC.Sigma(), pAll.Sigma())
	}
}
