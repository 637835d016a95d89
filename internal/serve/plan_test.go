package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	uaqetp "repro"
	"repro/internal/workload"
)

// TestSubmitWithResolvedPlanMatches: a Submit carrying the plan the
// tenant System's planner built for the request's template decides,
// executes and counts exactly as a Submit that resolves the plan
// itself — Decision, Outcome and /stats JSON byte for byte — on renamed
// clones (the simulator's arrivals), on admissions and rejections, and
// on a query that fails to plan (passed with a nil plan).
func TestSubmitWithResolvedPlanMatches(t *testing.T) {
	ctx := context.Background()
	slo := SLO{Confidence: 0.9, DefaultDeadline: 1.0, Quantile: 0.9}
	run := func(resolve bool) (decisions, outcomes, stats []byte) {
		srv := New(Config{})
		tenant, err := srv.AddTenant("alpha", uaqetp.DefaultConfig(), slo)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := tenant.System().GenerateWorkload(workload.SelJoin, 8)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, &uaqetp.Query{Name: "bad", Tables: []string{"no-such-table"}})
		var ds []any
		for round := 0; round < 3; round++ {
			for i, q := range qs {
				var plan *uaqetp.Plan
				if resolve {
					plan, _ = tenant.System().Planner().BuildPlan(ctx, q)
				}
				clone := *q
				clone.Name = fmt.Sprintf("alpha/%s#%05d", q.Name, round*len(qs)+i)
				d, err := srv.Submit(ctx, Request{Tenant: "alpha", Query: &clone, Deadline: 0.5 * float64(round), Plan: plan})
				if err != nil {
					ds = append(ds, err.Error())
					continue
				}
				ds = append(ds, d)
			}
		}
		outs, err := srv.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, ds), mustJSON(t, outs), mustJSON(t, srv.Stats())
	}
	wantD, wantO, wantS := run(false)
	gotD, gotO, gotS := run(true)
	if !strings.Contains(string(wantD), `"admitted": true`) || !strings.Contains(string(wantD), `"admitted": false`) || !strings.Contains(string(wantD), "no-such-table") {
		t.Fatalf("decisions lack an admission, a rejection or a planning failure:\n%s", wantD)
	}
	for _, c := range []struct {
		what      string
		got, want []byte
	}{{"decisions", gotD, wantD}, {"outcomes", gotO, wantO}, {"stats", gotS, wantS}} {
		if string(c.got) != string(c.want) {
			t.Errorf("%s with a resolved plan:\n%s\nwithout:\n%s", c.what, c.got, c.want)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHTTPSubmitCannotSetPlan: the resolved plan is in-process only — a
// /submit body naming it is an unknown field, answered 400.
func TestHTTPSubmitCannotSetPlan(t *testing.T) {
	srv, qs := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	query, err := json.Marshal(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"Plan", "plan"} {
		body := fmt.Sprintf(`{"tenant":"alpha","query":%s,%q:{}}`, query, key)
		resp, err := http.Post(ts.URL+"/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/submit naming %q: status %d, want 400", key, resp.StatusCode)
		}
	}
	if n := srv.Stats().Tenants[0].Predictions; n != 0 {
		t.Errorf("a body naming the plan reached Submit: %d predictions", n)
	}
}
