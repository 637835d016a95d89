package serve

import (
	"context"
	"fmt"
	"math"
	"testing"

	uaqetp "repro"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fixedPredictor answers every plan with the same distribution.
type fixedPredictor struct{ mu, sigma float64 }

func (p fixedPredictor) Predict(context.Context, *uaqetp.Plan, *uaqetp.Estimates) (*uaqetp.Prediction, error) {
	return syntheticPrediction(p.mu, p.sigma), nil
}

// TestSubmitShedBelow: a request carrying ShedBelow whose zero-wait
// P(T_q <= Deadline) is below it comes back "shed-predictive" with that
// probability, and moves nothing but the tenant's Predictions — no ID,
// no admitted/rejected count, no trace event, no queue state. The check
// is skipped without an explicit deadline, on a degenerate prediction
// (σ = 0 or a NaN mean) and without ShedBelow.
func TestSubmitShedBelow(t *testing.T) {
	ctx := context.Background()
	buf := trace.NewBuffer(trace.Full)
	srv, qs := newTestServer(t, Config{Trace: buf})
	q := qs[0]
	pred, err := srv.Predict(ctx, "alpha", q)
	if err != nil {
		t.Fatal(err)
	}
	mu, sigma := pred.Mean(), pred.Sigma()
	feasible := Request{Tenant: "alpha", Query: q, Deadline: mu + 10*sigma, ShedBelow: 0.9}
	first, err := srv.Submit(ctx, feasible)
	if err != nil || !first.Admitted || first.Verdict != "" {
		t.Fatalf("feasible submit with ShedBelow: %+v, %v", first, err)
	}

	tenantStats := func(name string) TenantStats {
		for _, ts := range srv.Stats().Tenants {
			if ts.Name == name {
				return ts
			}
		}
		t.Fatalf("no tenant %q", name)
		return TenantStats{}
	}
	before, beforeT, events := srv.Stats(), tenantStats("alpha"), len(buf.Events())
	deadline := mu - 2*sigma
	d, err := srv.Submit(ctx, Request{Tenant: "alpha", Query: q, Deadline: deadline, ShedBelow: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := stats.Normal{Mu: mu, Sigma: sigma}.CDF(deadline)
	if d.Verdict != "shed-predictive" || d.Admitted || d.ID != 0 || d.PMeet != want {
		t.Fatalf("hopeless submit: %+v, want shed-predictive with PMeet %v and no ID", d, want)
	}
	if got, reason := d.explain(), fmt.Sprintf("P(T_q <= %.4g) = %.4f below confidence %.4f with zero wait", deadline, want, 0.5); got != reason {
		t.Errorf("hopeless submit explains %q, want %q", got, reason)
	}
	after, afterT := srv.Stats(), tenantStats("alpha")
	if after.QueueLen != before.QueueLen || after.QueueWaitMean != before.QueueWaitMean || after.QueueWaitVar != before.QueueWaitVar {
		t.Errorf("shed moved the queue: %+v -> %+v", before, after)
	}
	if afterT.Predictions != beforeT.Predictions+1 || afterT.Admitted != beforeT.Admitted || afterT.Rejected != beforeT.Rejected {
		t.Errorf("shed counters: %+v -> %+v, want one more prediction and nothing else", beforeT, afterT)
	}
	if n := len(buf.Events()); n != events {
		t.Errorf("shed recorded %d trace events", n-events)
	}
	if next, err := srv.Submit(ctx, feasible); err != nil || next.ID != first.ID+1 {
		t.Errorf("submit after the shed: %+v, %v; want ID %d", next, err, first.ID+1)
	}

	// A tenant whose default deadline no query meets: with Deadline 0 the
	// shed is skipped and the SLO rule rejects instead.
	if _, err := srv.AddTenant("tight", uaqetp.DefaultConfig(), SLO{Confidence: 0.9, DefaultDeadline: 1e-9}); err != nil {
		t.Fatal(err)
	}
	alpha, err := srv.Tenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]fixedPredictor{"flat": {mu: 1, sigma: 0}, "nan": {mu: math.NaN(), sigma: 1}} {
		if _, err := srv.AddTenantSystem(name, alpha.System().With(uaqetp.WithPredictor(p)), SLO{Confidence: 0.9}); err != nil {
			t.Fatal(err)
		}
	}
	for _, req := range []Request{
		{Tenant: "tight", Query: q, ShedBelow: 0.9},
		{Tenant: "flat", Query: q, Deadline: 0.5, ShedBelow: 0.9},
		{Tenant: "nan", Query: q, Deadline: 0.5, ShedBelow: 0.9},
		{Tenant: "alpha", Query: q, Deadline: deadline},
	} {
		d, err := srv.Submit(ctx, req)
		if err != nil || d.Verdict != "" || d.ID == 0 || d.Admitted {
			t.Errorf("%s deadline %g: %+v, %v; want the SLO rule's rejection", req.Tenant, req.Deadline, d, err)
		}
	}
}
