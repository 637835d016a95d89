package uaqetp

// Tests for the pipeline seams: stage injection via With, per-call
// options, context cancellation through the batch pool, the
// hot-swappable predictor, and subtree-granular estimate memoization.

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/workload"
)

// stubPredictor returns a fixed distribution and counts its calls.
type stubPredictor struct {
	calls atomic.Int64
	mu    float64
}

func (p *stubPredictor) Predict(ctx context.Context, pl *Plan, est *Estimates) (*Prediction, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.calls.Add(1)
	return &Prediction{Dist: stats.Normal{Mu: p.mu, Sigma: 1}}, nil
}

// blockingPredictor parks every call until its context fires.
type blockingPredictor struct {
	started chan struct{} // closed once the first call is inside
	once    atomic.Bool
}

func (p *blockingPredictor) Predict(ctx context.Context, pl *Plan, est *Estimates) (*Prediction, error) {
	if p.once.CompareAndSwap(false, true) {
		close(p.started)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// emptyPlanner produces no candidate plans at all.
type emptyPlanner struct{}

func (emptyPlanner) BuildPlan(ctx context.Context, q *Query) (*Plan, error) {
	return nil, fmt.Errorf("emptyPlanner has no default plan")
}
func (emptyPlanner) Alternatives(ctx context.Context, q *Query, maxAlts int) ([]*Plan, error) {
	return nil, nil
}

// fourWayJoinQuery joins customer-orders-lineitem-supplier so
// Alternatives has join orders to permute.
func fourWayJoinQuery() *Query {
	return &Query{
		Name:   "v2-4way",
		Tables: []string{"customer", "orders", "lineitem", "supplier"},
		Preds:  []Predicate{{Col: "c_acctbal", Op: Le, Lo: 5000}},
		Joins: []JoinCond{
			{LeftTable: "customer", LeftCol: "c_custkey", RightTable: "orders", RightCol: "o_custkey"},
			{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"},
			{LeftTable: "lineitem", LeftCol: "l_suppkey", RightTable: "supplier", RightCol: "s_suppkey"},
		},
	}
}

// TestStubPredictorViaConfig proves the façade routes every prediction
// through the stage installed with With(WithPredictor): PredictContext,
// PredictBatchContext, and AlternativesContext all report the stub's
// distribution, and the stub sees every call.
func TestStubPredictorViaConfig(t *testing.T) {
	stub := &stubPredictor{mu: 42}
	sys := testSystem(t).With(WithPredictor(stub))
	q := joinQuery()
	p, err := sys.PredictContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mean() != 42 {
		t.Errorf("Predict did not route through the stub: mean %v", p.Mean())
	}
	preds, err := sys.PredictBatchContext(context.Background(), []*Query{q, q, q}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range preds {
		if pr.Mean() != 42 {
			t.Errorf("batch[%d] mean %v, want 42", i, pr.Mean())
		}
	}
	alts, err := sys.AlternativesContext(context.Background(), q, WithMaxAlts(4))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(1 + 3 + len(alts))
	if got := stub.calls.Load(); got != want {
		t.Errorf("stub saw %d calls, want %d", got, want)
	}

	// With() swaps it back out without touching the original façade.
	def, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	derived := def.With(WithPredictor(stub))
	dp, err := derived.PredictContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Mean() != 42 {
		t.Errorf("derived façade ignored WithPredictor: mean %v", dp.Mean())
	}
	op, err := def.PredictContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if op.Mean() == 42 {
		t.Error("original façade was mutated by With(WithPredictor)")
	}
}

// TestPredictBatchContextCancel pins prompt cancellation mid-batch: a
// predictor stage blocks on ctx, the batch is canceled, and the call
// returns ctx.Err() instead of hanging.
func TestPredictBatchContextCancel(t *testing.T) {
	blocker := &blockingPredictor{started: make(chan struct{})}
	sys := testSystem(t).With(WithPredictor(blocker))
	queries := make([]*Query, 8)
	for i := range queries {
		q := *joinQuery()
		q.Name = fmt.Sprintf("cancel-%d", i)
		queries[i] = &q
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-blocker.started // at least one query is mid-predict
		cancel()
	}()
	preds, err := sys.PredictBatchContext(ctx, queries, WithWorkers(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, p := range preds {
		if p != nil {
			t.Errorf("canceled batch returned prediction %d", i)
		}
	}
	// A pre-canceled context never reaches the stages at all.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := sys.PredictBatchContext(pre, queries); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled err = %v", err)
	}
}

// TestChoosePlanNoPlans pins the satellite fix: a planner producing zero
// plans yields ErrNoPlans instead of the old index-out-of-range panic.
func TestChoosePlanNoPlans(t *testing.T) {
	sys := testSystem(t).With(WithPlanner(emptyPlanner{}))
	_, _, err := sys.ChoosePlanContext(context.Background(), joinQuery(), WithQuantile(0.9), WithMaxAlts(4))
	if !errors.Is(err, ErrNoPlans) {
		t.Fatalf("err = %v, want ErrNoPlans", err)
	}
	// The same seam through the context API, and quantile validation.
	_, _, err = sys.ChoosePlanContext(context.Background(), joinQuery(), WithQuantile(0.5))
	if !errors.Is(err, ErrNoPlans) {
		t.Fatalf("ctx err = %v, want ErrNoPlans", err)
	}
	def, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := def.ChoosePlanContext(context.Background(), joinQuery(), WithQuantile(1.5)); err == nil {
		t.Error("quantile 1.5 accepted")
	}
}

// TestChoosePlanRejectsNaNQuantile pins that a risk quantile outside
// (0, 1) — NaN and the infinities included — is an error from the call,
// as WithQuantile promises, and never a panic in the quantile function.
func TestChoosePlanRejectsNaNQuantile(t *testing.T) {
	sys := testSystem(t)
	for _, q := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("quantile %v panicked: %v", q, r)
				}
			}()
			if _, _, err := sys.ChoosePlanContext(context.Background(), joinQuery(), WithQuantile(q)); err == nil {
				t.Errorf("quantile %v accepted", q)
			}
		}()
	}
}

// TestPlanHint replays a chosen plan through Predict and Execute.
func TestPlanHint(t *testing.T) {
	sys := testSystem(t)
	ctx := context.Background()
	q := fourWayJoinQuery()
	best, all, err := sys.ChoosePlanContext(ctx, q, WithQuantile(0.9), WithMaxAlts(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 {
		t.Fatalf("only %d alternatives; hint test needs a choice", len(all))
	}
	// Hint at a non-default alternative and check the prediction matches
	// the choice's (same plan → same deterministic prediction).
	var target PlanChoice
	for _, c := range all {
		if c.Plan != all[0].Plan {
			target = c
			break
		}
	}
	pred, plan, err := sys.PredictPlannedContext(ctx, q, WithPlanHint(target.Plan), WithMaxAlts(6))
	if err != nil {
		t.Fatal(err)
	}
	if sig := plan.String(); sig != target.Plan {
		t.Errorf("hint resolved to %q, want %q", sig, target.Plan)
	}
	if pred.Mean() != target.Pred.Mean() || pred.Sigma() != target.Pred.Sigma() {
		t.Errorf("hinted prediction (%v,%v) differs from choice (%v,%v)",
			pred.Mean(), pred.Sigma(), target.Pred.Mean(), target.Pred.Sigma())
	}
	if _, err := sys.ExecuteContext(ctx, q, WithPlanHint(best.Plan), WithMaxAlts(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.PredictContext(ctx, q, WithPlanHint("no such plan")); !errors.Is(err, ErrPlanHintNotFound) {
		t.Fatalf("bogus hint err = %v, want ErrPlanHintNotFound", err)
	}
}

// TestSubtreeMemoSharesAcrossAlternatives is the acceptance check for
// subtree-granular memoization: across the alternatives of a 4-way
// join, sampling passes are computed once per distinct subplan
// signature and every further occurrence is a cache hit.
func TestSubtreeMemoSharesAcrossAlternatives(t *testing.T) {
	sys := testSystem(t)
	q := fourWayJoinQuery()

	// Ground truth from the planner: total memoized subtrees across all
	// alternatives, and how many are distinct. Every operator memoizes —
	// scans, joins, and the unary/aggregate nodes above them — so every
	// plan node counts.
	nodes, err := plan.Alternatives(q, sys.cat, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) < 2 {
		t.Fatalf("only %d alternatives", len(nodes))
	}
	total := 0
	distinct := map[string]bool{}
	for _, root := range nodes {
		for _, n := range root.Nodes() {
			total++
			distinct[n.String()] = true
		}
	}
	if total == len(distinct) {
		t.Fatalf("alternatives share no subtrees; query too simple (total=%d)", total)
	}

	before := sys.CacheStats()
	if _, err := sys.AlternativesContext(context.Background(), q, WithMaxAlts(6)); err != nil {
		t.Fatal(err)
	}
	after := sys.CacheStats()
	hits := after.SubtreeHits - before.SubtreeHits
	misses := after.SubtreeMisses - before.SubtreeMisses
	if misses != uint64(len(distinct)) {
		t.Errorf("subtree passes computed %d times, want once per %d distinct subplans", misses, len(distinct))
	}
	if hits != uint64(total-len(distinct)) {
		t.Errorf("subtree hits = %d, want %d (total %d - distinct %d)",
			hits, total-len(distinct), total, len(distinct))
	}
	if hits == 0 {
		t.Error("no shared-subtree hits for a 4-way join's alternatives")
	}
}

// TestEstimatorMatchesMemolessEstimate holds the serving path to the
// plain algorithm: for every query of the three benchmarks, the default
// plan and every alternative AlternativesContext would consider, what
// the default Estimator returns — first while it fills the shared cache
// (alternatives already splice in the subtree passes of the plans before
// them), then warm — equals the memo-less sample.Estimate of the same
// plan field for field.
func TestEstimatorMatchesMemolessEstimate(t *testing.T) {
	sys := testSystem(t)
	ctx := context.Background()
	same := func(tag string, want *sample.Estimates, got *Estimates) {
		t.Helper()
		if len(got.est.Ops) != len(want.Ops) {
			t.Fatalf("%s: %d estimates, want %d", tag, len(got.est.Ops), len(want.Ops))
		}
		for id := range want.Ops {
			if !reflect.DeepEqual(want.Ops[id], got.est.Ops[id]) {
				t.Errorf("%s: node %d: estimator %+v, memo-less %+v", tag, id, got.est.Ops[id], want.Ops[id])
			}
		}
	}
	plans := 0
	for _, b := range workload.Benchmarks {
		qs, err := sys.GenerateWorkload(b, 28)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			def, err := sys.Planner().BuildPlan(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			alts, err := sys.Planner().Alternatives(ctx, q, DefaultMaxAlts)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range append([]*Plan{def}, alts...) {
				tag := fmt.Sprintf("%v %s plan %d", b, q.Name, i)
				want, err := sample.Estimate(p.root, sys.samples, sys.cat)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				for _, pass := range []string{"filling", "warm"} {
					got, err := sys.Estimator().Estimate(ctx, p)
					if err != nil {
						t.Fatalf("%s (%s): %v", tag, pass, err)
					}
					same(tag+" ("+pass+")", want, got)
				}
				plans++
			}
		}
	}
	st := sys.CacheStats()
	if plans == 0 || st.Hits == 0 || st.SubtreeHits == 0 {
		t.Errorf("%d plans, cache stats %+v: want whole-plan and subtree hits", plans, st)
	}
}

// TestRecalibrateDeterministicSwap checks the root-level hot swap: same
// seed → same units and predictions, derived façades isolated.
func TestRecalibrateDeterministicSwap(t *testing.T) {
	q := joinQuery()
	run := func() (before, after float64, units string) {
		sys := testSystem(t)
		derived := sys.With() // own handle, shared layers
		p, err := sys.PredictContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		before = p.Mean()
		if _, err := derived.Recalibrate(99); err != nil {
			t.Fatal(err)
		}
		pa, err := derived.PredictContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		after = pa.Mean()
		// The parent façade is untouched by the derived swap.
		pp, err := sys.PredictContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if pp.Mean() != before {
			t.Errorf("parent prediction moved with derived recalibration: %v vs %v", pp.Mean(), before)
		}
		return before, after, fmt.Sprint(derived.UnitDists())
	}
	b1, a1, u1 := run()
	b2, a2, u2 := run()
	if b1 != b2 || a1 != a2 || u1 != u2 {
		t.Errorf("recalibration not deterministic: (%v,%v) vs (%v,%v)", b1, a1, b2, a2)
	}
	if a1 == b1 {
		t.Error("recalibration with a different seed left predictions unchanged")
	}

	// A custom stage has no units to recalibrate.
	sys := testSystem(t)
	custom := sys.With(WithPredictor(&stubPredictor{mu: 1}))
	if _, err := custom.Recalibrate(1); err == nil {
		t.Error("Recalibrate on a custom predictor stage succeeded")
	}
}

// cappingPlanner demonstrates the supported custom-Planner shape: a
// decorator over the built-in stage (Plan values can only originate
// there), here capping alternatives to the default plan.
type cappingPlanner struct{ inner Planner }

func (p cappingPlanner) BuildPlan(ctx context.Context, q *Query) (*Plan, error) {
	return p.inner.BuildPlan(ctx, q)
}
func (p cappingPlanner) Alternatives(ctx context.Context, q *Query, maxAlts int) ([]*Plan, error) {
	alts, err := p.inner.Alternatives(ctx, q, maxAlts)
	if err != nil || len(alts) <= 1 {
		return alts, err
	}
	return alts[:1], nil
}

// TestPlannerDecorator wires a decorating planner via With and checks
// the façade routes through it.
func TestPlannerDecorator(t *testing.T) {
	sys := testSystem(t)
	capped := sys.With(WithPlanner(cappingPlanner{inner: sys.Planner()}))
	all, err := capped.AlternativesContext(context.Background(), fourWayJoinQuery(), WithMaxAlts(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Errorf("decorating planner not routed: %d alternatives", len(all))
	}
	full, err := sys.AlternativesContext(context.Background(), fourWayJoinQuery(), WithMaxAlts(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Errorf("original façade affected by derived planner: %d alternatives", len(full))
	}
}

// TestNilQueryIsAnError hands a nil query to every single-query entry
// point: each must answer with the same "nil query" error, none may
// panic (Measure and Plan used to dereference it in the planner's
// fingerprint).
func TestNilQueryIsAnError(t *testing.T) {
	sys := testSystem(t)
	ctx := context.Background()
	calls := []struct {
		name string
		call func() error
	}{
		{"PredictContext", func() error { _, err := sys.PredictContext(ctx, nil); return err }},
		{"PredictPlannedContext", func() error { _, _, err := sys.PredictPlannedContext(ctx, nil); return err }},
		{"ExecuteContext", func() error { _, err := sys.ExecuteContext(ctx, nil); return err }},
		{"AlternativesContext", func() error { _, err := sys.AlternativesContext(ctx, nil); return err }},
		{"ChoosePlanContext", func() error { _, _, err := sys.ChoosePlanContext(ctx, nil); return err }},
		{"PredictAndRunContext", func() error { _, _, err := sys.PredictAndRunContext(ctx, nil); return err }},
		{"Measure", func() error { _, err := sys.Measure(nil); return err }},
		{"Plan", func() error { _, err := sys.Plan(nil); return err }},
	}
	for _, c := range calls {
		if err := c.call(); err == nil || !strings.Contains(err.Error(), "nil query") {
			t.Errorf("%s(nil): err = %v, want one naming \"nil query\"", c.name, err)
		}
	}
}

// TestPublicSurface pins the exported methods of *System, the fields of
// Config, and the package-level cache identifiers (with the methods of
// the one cache type) against literals, so growing the public surface —
// or a second cache type behind an interface — is a deliberate edit of
// these lists rather than a side effect.
func TestPublicSurface(t *testing.T) {
	sysType := reflect.TypeOf(&System{})
	var methods []string
	for i := 0; i < sysType.NumMethod(); i++ {
		methods = append(methods, sysType.Method(i).Name)
	}
	wantMethods := []string{
		"AlternativesContext", "CacheStats", "ChoosePlanContext", "Config",
		"CostUnits", "Estimator", "ExecuteContext", "Executor",
		"GenerateWorkload", "Measure", "Plan", "Planner",
		"PredictAndRunContext", "PredictBatchContext", "PredictContext",
		"PredictPlannedContext", "Predictor", "Recalibrate", "UnitDists",
		"With", "WithDriftInjection", "WithMachine", "WithSamplingRatio",
		"WithVariant",
	}
	if !reflect.DeepEqual(methods, wantMethods) {
		t.Errorf("*System methods = %v\nwant %v", methods, wantMethods)
	}
	cfgType := reflect.TypeOf(Config{})
	var fields []string
	for i := 0; i < cfgType.NumField(); i++ {
		fields = append(fields, cfgType.Field(i).Name)
	}
	wantFields := []string{"DB", "Machine", "SamplingRatio", "Variant", "Seed", "RNG", "Cache"}
	if !reflect.DeepEqual(fields, wantFields) {
		t.Errorf("Config fields = %v\nwant %v", fields, wantFields)
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var cacheIdents []string
	add := func(id *ast.Ident) {
		if id.IsExported() && (strings.Contains(id.Name, "Cache") || strings.Contains(id.Name, "Tier")) {
			cacheIdents = append(cacheIdents, id.Name)
		}
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						add(sp.Name)
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add(id)
						}
					}
				}
			}
		}
	}
	sort.Strings(cacheIdents)
	wantIdents := []string{
		"CacheStats", "DefaultCacheShards", "EstimateCache", "NewEstimateCache",
		"NewTieredCache", "TierConfig", "TierStats",
	}
	if !reflect.DeepEqual(cacheIdents, wantIdents) {
		t.Errorf("package-level cache identifiers = %v\nwant %v", cacheIdents, wantIdents)
	}
	cacheType := reflect.TypeOf(&EstimateCache{})
	if cacheType.Elem().Kind() != reflect.Struct {
		t.Errorf("EstimateCache is a %v, want a struct", cacheType.Elem().Kind())
	}
	var cacheMethods []string
	for i := 0; i < cacheType.NumMethod(); i++ {
		cacheMethods = append(cacheMethods, cacheType.Method(i).Name)
	}
	if want := []string{"Stats", "TierStats"}; !reflect.DeepEqual(cacheMethods, want) {
		t.Errorf("*EstimateCache methods = %v\nwant %v", cacheMethods, want)
	}
}

// TestPredictorRejectsMismatchedEstimates pins the named error for
// estimates that belong to another plan — reachable through the public
// stages — where Predict used to answer with a confident wrong
// Prediction: fewer operators than the plan, more, and the same count in
// a different shape, every pairing in both directions, none of which may
// panic on an index either.
func TestPredictorRejectsMismatchedEstimates(t *testing.T) {
	sys := testSystem(t)
	ctx := context.Background()
	ordersLineitem := JoinCond{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"}
	queries := []*Query{
		{Name: "scan", Tables: []string{"lineitem"}, Preds: []Predicate{{Col: "l_quantity", Op: Le, Lo: 25}}},
		{Name: "sorted-agg", Tables: []string{"lineitem"}, Agg: &AggSpec{GroupCol: "l_returnflag", SortInput: true}},
		{Name: "join", Tables: []string{"orders", "lineitem"}, Joins: []JoinCond{ordersLineitem}},
		{Name: "join3", Tables: []string{"customer", "orders", "lineitem"}, Joins: []JoinCond{
			{LeftTable: "customer", LeftCol: "c_custkey", RightTable: "orders", RightCol: "o_custkey"}, ordersLineitem}},
	}
	plans := make([]*Plan, len(queries))
	ests := make([]*Estimates, len(queries))
	for i, q := range queries {
		var err error
		if plans[i], err = sys.Planner().BuildPlan(ctx, q); err != nil {
			t.Fatal(err)
		}
		if ests[i], err = sys.Estimator().Estimate(ctx, plans[i]); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := len(ests[1].est.Ops), len(ests[2].est.Ops); a != b {
		t.Fatalf("sorted-agg has %d operators, join %d: the same-count case is not covered", a, b)
	}
	for i, p := range plans {
		for j, est := range ests {
			pred, err := sys.Predictor().Predict(ctx, p, est)
			switch {
			case i == j && err != nil:
				t.Errorf("%s with its own estimates: %v", queries[i].Name, err)
			case i != j && err == nil:
				t.Errorf("plan %s with the estimates of %s: nil error, prediction %v",
					queries[i].Name, queries[j].Name, pred.Dist)
			case i != j && !strings.HasPrefix(err.Error(), "core: estimate"):
				t.Errorf("plan %s with the estimates of %s: error %q does not name the mismatch",
					queries[i].Name, queries[j].Name, err)
			}
		}
	}
}

// fixedEstimator is an Estimator stage that answers every plan with the
// same Estimates, whatever plan they were computed for.
type fixedEstimator struct{ est *Estimates }

func (f fixedEstimator) Estimate(context.Context, *Plan) (*Estimates, error) { return f.est, nil }

// TestMeasureRejectsMismatchedEstimates holds Measure to the shape check
// Predict runs: an Estimator stage that answers with another plan's
// estimates — a shorter plan's, a longer one's, or a same-size plan's
// with a different leaf layout — gets an error naming the mismatch, not
// a Measurement with dropped or mis-paired operators.
func TestMeasureRejectsMismatchedEstimates(t *testing.T) {
	sys := testSystem(t)
	ctx := context.Background()
	scan := &Query{Name: "scan", Tables: []string{"lineitem"}, Preds: []Predicate{{Col: "l_quantity", Op: Le, Lo: 25}}}
	sortedAgg := &Query{Name: "sorted-agg", Tables: []string{"lineitem"}, Agg: &AggSpec{GroupCol: "l_returnflag", SortInput: true}}
	join := joinQuery()
	estimatesOf := func(q *Query) *Estimates {
		p, err := sys.Planner().BuildPlan(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		est, err := sys.Estimator().Estimate(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	if a, b := len(estimatesOf(sortedAgg).est.Ops), len(estimatesOf(join).est.Ops); a != b {
		t.Fatalf("sorted-agg has %d operators, join %d: the same-size case is not covered", a, b)
	}
	cases := []struct {
		name   string
		q, of  *Query
		wantOK bool
	}{
		{"own estimates", join, join, true},
		{"a shorter plan's", join, scan, false},
		{"a longer plan's", scan, join, false},
		{"a same-size plan's, other leaf layout", join, sortedAgg, false},
		{"a same-size plan's, other leaf layout, reversed", sortedAgg, join, false},
	}
	for _, c := range cases {
		m, err := sys.With(WithEstimator(fixedEstimator{estimatesOf(c.of)})).Measure(c.q)
		switch {
		case c.wantOK && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case !c.wantOK && err == nil:
			t.Errorf("%s: nil error, measurement with %d ops", c.name, len(m.Ops))
		case !c.wantOK && !strings.HasPrefix(err.Error(), "core: estimate"):
			t.Errorf("%s: error %q does not name the mismatch", c.name, err)
		}
	}
}
