package serve

import (
	"context"
	"math"
	"sync"
	"testing"

	uaqetp "repro"
	"repro/internal/stats"
	"repro/internal/workload"
)

// newTestServer returns a server with two tenants over the same
// generated catalog (identical System configs), as in the acceptance
// scenario: a shared cache, two isolated SLOs.
func newTestServer(t *testing.T, cfg Config) (*Server, []*uaqetp.Query) {
	t.Helper()
	srv := New(cfg)
	sysCfg := uaqetp.DefaultConfig()
	slo := SLO{Confidence: 0.9, DefaultDeadline: 1.0, Quantile: 0.9}
	ta, err := srv.AddTenant("alpha", sysCfg, slo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddTenant("beta", sysCfg, slo); err != nil {
		t.Fatal(err)
	}
	qs, err := ta.sys.GenerateWorkload(workload.SelJoin, 8)
	if err != nil {
		t.Fatal(err)
	}
	return srv, qs
}

// TestTwoTenantsShareSamplingPasses drives two tenants over the same
// catalog and checks — via the aggregated sharded-cache stats — that the
// second tenant's predictions are served from the first tenant's
// sampling passes.
func TestTwoTenantsShareSamplingPasses(t *testing.T) {
	srv, qs := newTestServer(t, Config{})
	for _, q := range qs {
		if _, err := srv.Predict(context.Background(), "alpha", q); err != nil {
			t.Fatal(err)
		}
	}
	after := srv.Stats().Cache
	if after.Misses == 0 {
		t.Fatal("tenant alpha ran no sampling passes")
	}
	for _, q := range qs {
		if _, err := srv.Predict(context.Background(), "beta", q); err != nil {
			t.Fatal(err)
		}
	}
	final := srv.Stats().Cache
	if final.Misses != after.Misses {
		t.Errorf("tenant beta ran %d fresh sampling passes, want 0 (cross-tenant sharing)",
			final.Misses-after.Misses)
	}
	if final.Hits <= after.Hits {
		t.Errorf("no cross-tenant cache hits: %d -> %d", after.Hits, final.Hits)
	}
}

// TestAdmissionBoundaryAtSLOQuantile pins the accept/reject boundary on
// an empty queue (T_wait = 0, so the rule degenerates to P(T_q <= d)):
// with deadline just above the confidence quantile of the predicted
// distribution the query must be admitted, just below it must be
// rejected. The queue is drained after each admission so every decision
// sees zero backlog.
func TestAdmissionBoundaryAtSLOQuantile(t *testing.T) {
	srv, qs := newTestServer(t, Config{})
	tn, err := srv.Tenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs[:4] {
		pred, err := srv.Predict(context.Background(), "alpha", q)
		if err != nil {
			t.Fatal(err)
		}
		boundary := pred.Dist.Quantile(tn.slo.Confidence)
		eps := 1e-6 * boundary

		d, err := srv.Submit(context.Background(), Request{Tenant: "alpha", Query: q, Deadline: boundary + eps})
		if err != nil {
			t.Fatal(err)
		}
		if !d.Admitted {
			t.Errorf("%s: deadline above q%.2f rejected: %+v", q.Name, tn.slo.Confidence, d)
		}
		if _, err := srv.Drain(); err != nil {
			t.Fatal(err)
		}
		d, err = srv.Submit(context.Background(), Request{Tenant: "alpha", Query: q, Deadline: boundary - eps})
		if err != nil {
			t.Fatal(err)
		}
		if d.Admitted {
			t.Errorf("%s: deadline below q%.2f admitted: %+v", q.Name, tn.slo.Confidence, d)
		}
	}
}

// TestQueueAwareAdmissionRejectsEarlier pins the satellite behavior: a
// deadline that clears the SLO on an empty queue stops clearing it once
// predicted backlog accumulates — the same query is admitted first and
// rejected under load, strictly because of the queue-wait term.
func TestQueueAwareAdmissionRejectsEarlier(t *testing.T) {
	srv, qs := newTestServer(t, Config{})
	tn, err := srv.Tenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	pred, err := srv.Predict(context.Background(), "alpha", q)
	if err != nil {
		t.Fatal(err)
	}
	// Just above the empty-queue admission boundary.
	deadline := pred.Dist.Quantile(tn.slo.Confidence) * 1.001

	first, err := srv.Submit(context.Background(), Request{Tenant: "alpha", Query: q, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Admitted || first.QueueWaitMean != 0 {
		t.Fatalf("empty-queue submission not admitted cleanly: %+v", first)
	}
	// Same query, same deadline, but now one admitted request ahead:
	// P(T_wait + T_q <= d) must fall below the confidence.
	second, err := srv.Submit(context.Background(), Request{Tenant: "alpha", Query: q, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	if second.Admitted {
		t.Fatalf("borderline submission admitted despite backlog: %+v", second)
	}
	if second.QueueWaitMean <= 0 {
		t.Errorf("second decision saw no backlog: %+v", second)
	}
	if second.PMeet >= first.PMeet {
		t.Errorf("PMeet did not fall under load: %v -> %v", first.PMeet, second.PMeet)
	}
	// Draining restores the empty-queue behavior.
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	third, err := srv.Submit(context.Background(), Request{Tenant: "alpha", Query: q, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	if !third.Admitted {
		t.Errorf("post-drain submission rejected: %+v", third)
	}
	if third.PMeet != first.PMeet {
		t.Errorf("post-drain PMeet %v differs from empty-queue PMeet %v", third.PMeet, first.PMeet)
	}
}

// TestAdmissionDeterministic replays the same submission sequence on two
// freshly built servers with the same seed: every decision must match.
func TestAdmissionDeterministic(t *testing.T) {
	deadlines := []float64{0.05, 0.2, 0.5, 1.0}
	run := func() []Decision {
		srv, qs := newTestServer(t, Config{})
		var ds []Decision
		for i, q := range qs {
			d, err := srv.Submit(context.Background(), Request{
				Tenant:   []string{"alpha", "beta"}[i%2],
				Query:    q,
				Deadline: deadlines[i%len(deadlines)],
			})
			if err != nil {
				t.Fatal(err)
			}
			ds = append(ds, d)
		}
		return ds
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Admitted != b[i].Admitted || a[i].ID != b[i].ID || a[i].QueueLen != b[i].QueueLen {
			t.Errorf("decision %d differs across replays: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestDrainPriorityAndClock checks that admitted work executes in
// risk-slack order, the virtual clock advances by the measured times,
// and deadline outcomes follow from the clock.
func TestDrainPriorityAndClock(t *testing.T) {
	srv, qs := newTestServer(t, Config{})
	var admitted []Decision
	for _, q := range qs {
		d, err := srv.Submit(context.Background(), Request{Tenant: "alpha", Query: q, Deadline: 2.0})
		if err != nil {
			t.Fatal(err)
		}
		if d.Admitted {
			admitted = append(admitted, d)
		}
	}
	if len(admitted) < 2 {
		t.Fatalf("only %d admissions; workload too small for ordering test", len(admitted))
	}
	outs, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(admitted) {
		t.Fatalf("drained %d, admitted %d", len(outs), len(admitted))
	}
	var clock float64
	for i, o := range outs {
		if o.Start != clock {
			t.Errorf("outcome %d starts at %v, clock was %v", i, o.Start, clock)
		}
		clock += o.Elapsed
		if o.Finish != clock {
			t.Errorf("outcome %d finishes at %v, want %v", i, o.Finish, clock)
		}
		if o.Met != (o.Finish <= o.Deadline) {
			t.Errorf("outcome %d Met=%v inconsistent with finish %v deadline %v",
				i, o.Met, o.Finish, o.Deadline)
		}
	}
	// All deadlines are equal (2.0 relative, admitted at clock 0), so
	// least slack first means the largest risk quantile runs first:
	// outcomes must be sorted by descending q-quantile.
	tn, _ := srv.Tenant("alpha")
	lastKey := 0.0
	for i, o := range outs {
		key := stats.Normal{Mu: o.PredMean, Sigma: o.PredSigma}.Quantile(tn.slo.Quantile)
		if i > 0 && key > lastKey {
			t.Errorf("outcome %d out of slack order: quantile %v after %v", i, key, lastKey)
		}
		lastKey = key
	}
	if st := srv.Stats(); st.Clock != clock || st.QueueLen != 0 {
		t.Errorf("server stats clock=%v queue=%d, want clock=%v queue=0", st.Clock, st.QueueLen, clock)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	srv, qs := newTestServer(t, Config{MaxQueue: 1})
	d1, err := srv.Submit(context.Background(), Request{Tenant: "alpha", Query: qs[0], Deadline: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Admitted {
		t.Fatalf("first submission rejected: %+v", d1)
	}
	d2, err := srv.Submit(context.Background(), Request{Tenant: "beta", Query: qs[1], Deadline: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Admitted {
		t.Fatal("second submission admitted past MaxQueue=1")
	}
	if got := d2.explain(); got != "queue full (1 admitted requests pending)" {
		t.Errorf("backpressure rejection explains %q", got)
	}
	// Draining frees the slot.
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	d3, err := srv.Submit(context.Background(), Request{Tenant: "beta", Query: qs[1], Deadline: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !d3.Admitted {
		t.Errorf("submission after drain rejected: %+v", d3)
	}
}

func TestSubmitErrors(t *testing.T) {
	srv, qs := newTestServer(t, Config{})
	if _, err := srv.Submit(context.Background(), Request{Tenant: "nobody", Query: qs[0]}); err == nil {
		t.Error("unknown tenant accepted")
	}
	if _, err := srv.Submit(context.Background(), Request{Tenant: "alpha"}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := srv.Submit(context.Background(), Request{Tenant: "alpha", Query: qs[0], Deadline: -1}); err == nil {
		t.Error("negative deadline accepted")
	}
	bad := &uaqetp.Query{Name: "bad", Tables: []string{"no-such-table"}}
	if _, err := srv.Submit(context.Background(), Request{Tenant: "alpha", Query: bad}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := srv.AddTenant("alpha", uaqetp.DefaultConfig(), SLO{}); err == nil {
		t.Error("duplicate tenant accepted")
	}
	if _, err := srv.AddTenant("", uaqetp.DefaultConfig(), SLO{}); err == nil {
		t.Error("empty tenant name accepted")
	}
}

// TestSLORejectsNaN pins that an SLO whose confidence, quantile or
// default deadline is NaN is refused when it is normalized — the check
// AddTenant and AddTenantSystem run — instead of passing the range test and
// panicking later in a quantile.
func TestSLORejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, slo := range []SLO{
		{Confidence: nan},
		{Quantile: nan},
		{DefaultDeadline: nan},
		{DefaultDeadline: math.Inf(-1)},
	} {
		if _, err := slo.Normalized(); err == nil {
			t.Errorf("SLO %+v accepted", slo)
		}
	}
	if _, err := (SLO{}).Normalized(); err != nil {
		t.Errorf("zero SLO refused: %v", err)
	}
}

// TestServeCacheEvictionUnderConcurrentTenants forces the shared cache
// far below the working set while both tenants predict concurrently:
// the per-shard LRUs must evict (counted in the aggregated stats) and
// the server must keep answering correctly.
func TestServeCacheEvictionUnderConcurrentTenants(t *testing.T) {
	srv, _ := newTestServer(t, Config{Cache: uaqetp.NewEstimateCache(4)})
	ta, _ := srv.Tenant("alpha")
	qs, err := ta.sys.GenerateWorkload(workload.SelJoin, 24)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, tenant := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for _, q := range qs {
				if _, err := srv.Predict(context.Background(), tenant, q); err != nil {
					t.Errorf("%s/%s: %v", tenant, q.Name, err)
				}
			}
		}(tenant)
	}
	wg.Wait()
	st := srv.Stats().Cache
	if st.Evictions == 0 {
		t.Errorf("no evictions with capacity 4 and %d distinct plans", len(qs))
	}
	// NewSharded rounds the per-shard capacity up to at least one entry,
	// so a tiny total capacity is bounded by the shard count.
	if st.Entries > uaqetp.DefaultCacheShards {
		t.Errorf("cache holds %d entries, want <= %d", st.Entries, uaqetp.DefaultCacheShards)
	}
	if st.Hits+st.Misses == 0 {
		t.Error("aggregated stats recorded no traffic")
	}
}

// syntheticPrediction builds a prediction with a known distribution for
// exercising the feedback loop without a System.
func syntheticPrediction(mu, sigma float64) *uaqetp.Prediction {
	p := &uaqetp.Prediction{Dist: stats.Normal{Mu: mu, Sigma: sigma}}
	p.PerUnit[2] = mu // attribute everything to ct (unit index 2)
	return p
}

// observed is the Outcome the drain path hands the feedback loop for a
// request predicted as pred that ran for elapsed seconds.
func observed(pred *uaqetp.Prediction, elapsed float64) *Outcome {
	return &Outcome{Elapsed: elapsed, PredMean: pred.Mean(), PredSigma: pred.Sigma(), Unit: pred.DominantUnit()}
}

func TestFeedbackWellCalibratedNoAdvice(t *testing.T) {
	var f feedback
	// Observations at the predicted mean sit inside every central
	// interval: coverage 100% at all levels — above nominal, but drift
	// +0.05..+0.5; the 0.5 level drifts +0.5 > tolerance. So instead
	// spread observations to match nominal coverage: half just inside
	// the 50% band, the rest split between the 50-90 and 90-95 shells.
	mu, sigma := 1.0, 0.1
	quant := func(p float64) float64 { return stats.Normal{Mu: mu, Sigma: sigma}.Quantile(p) }
	var obs []float64
	for i := 0; i < 10; i++ {
		obs = append(obs, mu) // inside all bands
	}
	for i := 0; i < 8; i++ {
		obs = append(obs, quant(0.8)) // outside 50%, inside 90%
	}
	for i := 0; i < 1; i++ {
		obs = append(obs, quant(0.93)) // outside 90%, inside 95%
	}
	for i := 0; i < 1; i++ {
		obs = append(obs, quant(0.99)) // outside 95%
	}
	for _, o := range obs {
		f.record(observed(syntheticPrediction(mu, sigma), o))
	}
	rep := f.report()
	if rep.Observations != len(obs) {
		t.Fatalf("report %+v", rep)
	}
	if rep.RecalibrationAdvised {
		t.Errorf("well-calibrated observations advised recalibration: %+v", rep.PerUnit)
	}
	if len(rep.PerUnit) != 1 || rep.PerUnit[0].Unit != "ct" {
		t.Errorf("per-unit attribution wrong: %+v", rep.PerUnit)
	}
}

func TestFeedbackDriftAdvisesRecalibration(t *testing.T) {
	var f feedback
	// Every observation lands far above the predicted distribution, as
	// if the dominant cost unit's true mean drifted upward since
	// calibration: coverage collapses to 0 at every level.
	for i := 0; i < driftMinSamples+4; i++ {
		f.record(observed(syntheticPrediction(1.0, 0.1), 2.0))
	}
	rep := f.report()
	if !rep.RecalibrationAdvised {
		t.Fatalf("drifted observations did not advise recalibration: %+v", rep.PerUnit)
	}
	ud := rep.PerUnit[0]
	if ud.Bias != -1.0 {
		t.Errorf("bias %v, want -1.0: the predictor underestimates by a second", ud.Bias)
	}
	if ud.MeanZ < 5 {
		t.Errorf("mean z = %v, want strongly positive", ud.MeanZ)
	}
	for _, c := range ud.Coverage {
		if c.Observed != 0 || c.Drift != -c.Nominal {
			t.Errorf("coverage point %+v, want observed 0", c)
		}
	}
}

func TestFeedbackBelowMinSamplesStaysQuiet(t *testing.T) {
	var f feedback
	for i := 0; i < driftMinSamples-1; i++ {
		f.record(observed(syntheticPrediction(1.0, 0.1), 2.0))
	}
	if rep := f.report(); rep.RecalibrationAdvised {
		t.Error("recalibration advised below the sample floor")
	}
}

// rotatingPlanner decorates a planner: it counts BuildPlan calls and
// answers call i with alternative i mod 2 of the query, so planning one
// request twice would pick two different plans.
type rotatingPlanner struct {
	inner uaqetp.Planner
	built []*uaqetp.Plan
}

func (p *rotatingPlanner) BuildPlan(ctx context.Context, q *uaqetp.Query) (*uaqetp.Plan, error) {
	alts, err := p.inner.Alternatives(ctx, q, 2)
	if err != nil {
		return nil, err
	}
	plan := alts[len(p.built)%len(alts)]
	p.built = append(p.built, plan)
	return plan, nil
}

func (p *rotatingPlanner) Alternatives(ctx context.Context, q *uaqetp.Query, maxAlts int) ([]*uaqetp.Plan, error) {
	return p.inner.Alternatives(ctx, q, maxAlts)
}

// recordingExecutor decorates an executor, remembering each plan it runs.
type recordingExecutor struct {
	inner uaqetp.Executor
	ran   []*uaqetp.Plan
}

func (x *recordingExecutor) Execute(ctx context.Context, q *uaqetp.Query, p *uaqetp.Plan) (float64, error) {
	x.ran = append(x.ran, p)
	return x.inner.Execute(ctx, q, p)
}

// TestAdmittedPlanIsExecuted: a request is planned once, at Submit, and
// the step executes that plan and feeds its outcome to the drift loop —
// even under a planner that would answer a second call differently.
func TestAdmittedPlanIsExecuted(t *testing.T) {
	ctx := context.Background()
	sys, err := uaqetp.Open(uaqetp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sys.GenerateWorkload(workload.SelJoin, 8)
	if err != nil {
		t.Fatal(err)
	}
	var q *uaqetp.Query
	for _, c := range qs {
		if alts, err := sys.Planner().Alternatives(ctx, c, 2); err == nil && len(alts) == 2 && alts[0].String() != alts[1].String() {
			q = c
			break
		}
	}
	if q == nil {
		t.Fatal("no generated query has two distinct alternatives")
	}
	planner := &rotatingPlanner{inner: sys.Planner()}
	exec := &recordingExecutor{inner: sys.Executor()}
	// StepOneInto feeds the drift loop only under a cadence; this one
	// never fires, because StepOneInto never advances the clock.
	srv := New(Config{RecalEvery: 1e9})
	if _, err := srv.AddTenantSystem("t", sys.With(uaqetp.WithPlanner(planner), uaqetp.WithExecutor(exec)),
		SLO{Confidence: 0.5, DefaultDeadline: 1e6}); err != nil {
		t.Fatal(err)
	}
	const pairs = 4
	for i := 0; i < pairs; i++ {
		d, err := srv.Submit(ctx, Request{Tenant: "t", Query: q})
		if err != nil || !d.Admitted {
			t.Fatalf("pair %d: submit %+v, %v", i, d, err)
		}
		var out Outcome
		if ok, err := srv.StepOneInto(&out); !ok || err != nil {
			t.Fatalf("pair %d: step ok=%v err=%v", i, ok, err)
		}
		if len(planner.built) != i+1 {
			t.Fatalf("pair %d: %d BuildPlan calls so far, want one per Submit + Step pair", i, len(planner.built))
		}
		if exec.ran[i] != planner.built[i] {
			t.Fatalf("pair %d: executed %q, admitted %q", i, exec.ran[i], planner.built[i])
		}
	}
	if n := srv.Stats().Tenants[0].Drift.Observations; n != pairs {
		t.Errorf("feedback observed %d executions, want %d", n, pairs)
	}
}
