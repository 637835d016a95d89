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
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSubmitWithResolvedPlanMatches: a Submit carrying the plan the
// tenant System's planner built for the request's template, and one
// carrying the template's shared query under an Exec name (the
// simulator's arrivals), with or without that plan, decide, execute,
// count and trace exactly as a Submit that resolves the plan of a
// renamed clone itself — Decision, Outcome, /stats and trace JSON byte
// for byte — on admissions and rejections, and on two queries that fail
// to plan (passed with a nil plan), one with an error that names the
// query. Each mode runs untraced, as the simulator runs, and under a
// Full-level trace; tracing changes no decision, outcome or count. The
// one asserted difference: an Exec-named request's Outcome carries its
// template's Name where the clone's carries the clone's.
func TestSubmitWithResolvedPlanMatches(t *testing.T) {
	ctx := context.Background()
	slo := SLO{Confidence: 0.9, DefaultDeadline: 1.0, Quantile: 0.9}
	member := uaqetp.NewExecMember("alpha")
	type result struct {
		decisions, stats, events []byte
		outs                     []Outcome
	}
	run := func(resolve, named, traced bool) result {
		var cfg Config
		var rec *trace.Buffer
		if traced {
			rec = trace.NewBuffer(trace.Full)
			cfg.Trace = rec
		}
		srv := New(cfg)
		tenant, err := srv.AddTenant("alpha", uaqetp.DefaultConfig(), slo)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := tenant.System().GenerateWorkload(workload.SelJoin, 8)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, &uaqetp.Query{Name: "bad", Tables: []string{"no-such-table"}},
			&uaqetp.Query{Name: "stray", Tables: []string{"orders"}, Preds: []uaqetp.Predicate{{Col: "l_quantity", Op: uaqetp.Le, Hi: 10}}})
		var ds []any
		for round := 0; round < 3; round++ {
			for i, q := range qs {
				var plan *uaqetp.Plan
				if resolve {
					plan, _ = tenant.System().Planner().BuildPlan(ctx, q)
				}
				req := Request{Tenant: "alpha", Deadline: 0.5 * float64(round), Plan: plan}
				if named {
					req.Query, req.Exec = q, member.Exec(q, uint32(round*len(qs)+i))
				} else {
					clone := *q
					clone.Name = fmt.Sprintf("alpha/%s#%05d", q.Name, round*len(qs)+i)
					req.Query = &clone
				}
				d, err := srv.Submit(ctx, req)
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
		r := result{decisions: mustJSON(t, ds), stats: mustJSON(t, srv.Stats()), outs: outs}
		if traced {
			r.events = mustJSON(t, rec.Events())
		}
		return r
	}
	var untraced result
	for _, traced := range []bool{false, true} {
		want := run(false, false, traced)
		wantD, wantO := string(want.decisions), string(mustJSON(t, want.outs))
		if !strings.Contains(wantD, `"admitted": true`) || !strings.Contains(wantD, `"admitted": false`) || !strings.Contains(wantD, "no-such-table") ||
			!strings.Contains(wantD, `plan: query \"alpha/stray#`) || len(want.outs) == 0 {
			t.Fatalf("decisions lack an admission, a rejection or a planning failure:\n%s", wantD)
		}
		if !traced {
			untraced = want
		} else if wantD != string(untraced.decisions) || wantO != string(mustJSON(t, untraced.outs)) || string(want.stats) != string(untraced.stats) {
			t.Errorf("tracing moved a decision, outcome or count:\n%s\n%s\nuntraced:\n%s\n%s", wantD, wantO, untraced.decisions, mustJSON(t, untraced.outs))
		}
		// An Exec-named request's Outcome names its template.
		templated := make([]Outcome, len(want.outs))
		for i, o := range want.outs {
			hash := strings.LastIndexByte(o.Query, '#')
			if !strings.HasPrefix(o.Query, "alpha/") || hash < 0 {
				t.Fatalf("outcome %d names %q, not a renamed clone", i, o.Query)
			}
			o.Query = o.Query[len("alpha/"):hash]
			templated[i] = o
		}
		for _, mode := range []struct {
			what           string
			resolve, named bool
		}{{"a resolved plan", true, false}, {"a resolved plan and an Exec name", true, true}, {"an Exec name", false, true}} {
			got := run(mode.resolve, mode.named, traced)
			wantOuts := want.outs
			if mode.named {
				wantOuts = templated
			}
			for _, c := range []struct {
				what      string
				got, want []byte
			}{{"decisions", got.decisions, want.decisions}, {"outcomes", mustJSON(t, got.outs), mustJSON(t, wantOuts)},
				{"stats", got.stats, want.stats}, {"trace", got.events, want.events}} {
				if string(c.got) != string(c.want) {
					t.Errorf("%s with %s (traced %v):\n%s\nwant:\n%s", c.what, mode.what, traced, c.got, c.want)
				}
			}
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

// TestHTTPSubmitCannotSetPlan: the resolved plan and the execution name
// are in-process only — a /submit body naming either is an unknown
// field, answered 400.
func TestHTTPSubmitCannotSetPlan(t *testing.T) {
	srv, qs := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	query, err := json.Marshal(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"Plan", "plan", "Exec", "exec"} {
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
