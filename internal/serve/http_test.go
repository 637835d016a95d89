package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	uaqetp "repro"
)

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func TestHTTPEndpoints(t *testing.T) {
	srv, qs := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// /healthz lists both tenants.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string   `json:"status"`
		Tenants []string `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || len(health.Tenants) != 2 {
		t.Fatalf("healthz = %+v", health)
	}

	// /predict returns the distribution.
	resp, body := postJSON(t, ts, "/predict", PredictRequest{Tenant: "alpha", Query: qs[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Mean <= 0 || pr.Sigma < 0 || pr.P95 < pr.P50 || pr.DominantUnit == "" {
		t.Fatalf("implausible prediction %+v", pr)
	}

	// /submit admits a generous deadline...
	resp, body = postJSON(t, ts, "/submit", Request{Tenant: "alpha", Query: qs[0], Deadline: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var d Decision
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if !d.Admitted || d.QueueLen != 1 {
		t.Fatalf("decision %+v", d)
	}
	// ...and rejects an impossible one with 429.
	resp, body = postJSON(t, ts, "/submit", Request{Tenant: "alpha", Query: qs[0], Deadline: 1e-9})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hopeless submit status %d: %s", resp.StatusCode, body)
	}

	// /drain executes the one admitted query.
	resp, body = postJSON(t, ts, "/drain", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d: %s", resp.StatusCode, body)
	}
	var drain struct {
		Executed int       `json:"executed"`
		Outcomes []Outcome `json:"outcomes"`
	}
	if err := json.Unmarshal(body, &drain); err != nil {
		t.Fatal(err)
	}
	if drain.Executed != 1 || len(drain.Outcomes) != 1 || drain.Outcomes[0].Elapsed <= 0 {
		t.Fatalf("drain = %+v", drain)
	}

	// /stats reflects the traffic.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Tenants) != 2 || st.QueueLen != 0 {
		t.Fatalf("stats = %+v", st)
	}
	var alpha TenantStats
	for _, tn := range st.Tenants {
		if tn.Name == "alpha" {
			alpha = tn
		}
	}
	if alpha.Executed != 1 || alpha.Admitted != 1 || alpha.Rejected != 1 {
		t.Fatalf("alpha stats = %+v", alpha)
	}
	if alpha.Drift.Observations != 1 {
		t.Fatalf("feedback did not see the drained execution: %+v", alpha.Drift)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, qs := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts, "/predict", PredictRequest{Tenant: "nobody", Query: qs[0]})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tenant: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/predict", PredictRequest{Tenant: "alpha"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("nil query: status %d, want 400", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/submit", "application/json", bytes.NewBufferString("{nonsense"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict: status %d, want 405", resp.StatusCode)
	}
	bad := &uaqetp.Query{Name: "bad", Tables: []string{"no-such-table"}}
	resp, _ = postJSON(t, ts, "/submit", Request{Tenant: "alpha", Query: bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid query: status %d, want 400", resp.StatusCode)
	}
	// A predicate on a table the query does not list is an error, not a
	// prediction for the query without it.
	stray := &uaqetp.Query{Name: "stray", Tables: []string{"orders"},
		Preds: []uaqetp.Predicate{{Col: "p_size", Op: uaqetp.Le, Lo: 3}}}
	resp, body := postJSON(t, ts, "/predict", PredictRequest{Tenant: "alpha", Query: stray})
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("p_size")) {
		t.Errorf("predicate on an unlisted table: status %d %s, want 400 naming p_size", resp.StatusCode, body)
	}
	// So is an aggregate grouping on such a table: it used to be
	// admitted, and its execution could only fail.
	group := &uaqetp.Query{Name: "stray-group", Tables: []string{"orders", "lineitem"},
		Joins: []uaqetp.JoinCond{{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"}},
		Agg:   &uaqetp.AggSpec{GroupCol: "c_custkey"}}
	resp, body = postJSON(t, ts, "/submit", Request{Tenant: "alpha", Query: group})
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("c_custkey")) {
		t.Errorf("group column on an unlisted table: status %d %s, want 400 naming c_custkey", resp.StatusCode, body)
	}
}

func TestDispatcherDrainsQueue(t *testing.T) {
	srv, qs := newTestServer(t, Config{})
	stop := srv.StartDispatcher(time.Millisecond)
	for _, q := range qs[:3] {
		if _, err := srv.Submit(context.Background(), Request{Tenant: "alpha", Query: q, Deadline: 5}); err != nil {
			t.Fatal(err)
		}
	}
	stop() // stop drains a final time, so the queue must be empty now
	if st := srv.Stats(); st.QueueLen != 0 {
		t.Errorf("queue not drained: %d pending", st.QueueLen)
	}
}

// TestHTTPRecalibrate exercises the /recalibrate endpoint: a forced
// recalibration reports the unit swap, and a quiet tenant without force
// reports advised=false with units untouched.
func TestHTTPRecalibrate(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/recalibrate", RecalibrateRequest{Tenant: "alpha"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recalibrate status %d: %s", resp.StatusCode, body)
	}
	var r RecalibrateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Advised || r.Recalibrated || len(r.UnitsAfter) != 0 {
		t.Fatalf("quiet tenant recalibrated over HTTP: %+v", r)
	}

	resp, body = postJSON(t, ts, "/recalibrate", RecalibrateRequest{Tenant: "alpha", Seed: 9, Force: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forced recalibrate status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Recalibrated || r.Seed != 9 || len(r.UnitsBefore) == 0 || len(r.UnitsAfter) == 0 {
		t.Fatalf("forced recalibrate response %+v", r)
	}

	resp, _ = postJSON(t, ts, "/recalibrate", RecalibrateRequest{Tenant: "nobody", Force: true})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tenant: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPOversizeBody: a request body past the 1 MiB limit is refused
// with 413 and the usual error body instead of being buffered, and the
// server keeps answering normal requests afterwards.
func TestHTTPOversizeBody(t *testing.T) {
	srv, qs := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	huge := `{"tenant":"alpha","query":{"Name":"` + strings.Repeat("x", 2*MaxBodyBytes) + `"}}`
	for _, path := range []string{"/submit", "/predict"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var e httpError
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize %s: status %d, want 413", path, resp.StatusCode)
		}
		if err != nil || e.Error == "" {
			t.Errorf("oversize %s: error body %+v (decode: %v)", path, e, err)
		}
	}
	resp, body := postJSON(t, ts, "/predict", PredictRequest{Tenant: "alpha", Query: qs[0]})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("predict after oversize: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts, "/submit", Request{Tenant: "alpha", Query: qs[0], Deadline: 100})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("submit after oversize: status %d: %s", resp.StatusCode, body)
	}
}

// TestHTTPSubmitShedBelowOutOfRange: /submit answers 400 for a
// shed_below outside [0, 1) — 1.5 would shed every request that has a
// deadline, and -0.1 would be silently ignored — and Submit refuses NaN
// through the same check, before it predicts anything.
func TestHTTPSubmitShedBelowOutOfRange(t *testing.T) {
	srv, qs := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, sb := range []float64{1.5, -0.1} {
		resp, body := postJSON(t, ts, "/submit", Request{Tenant: "alpha", Query: qs[0], Deadline: 100, ShedBelow: sb})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("shed_below %g: status %d, want 400: %s", sb, resp.StatusCode, body)
		}
	}
	if _, err := srv.Submit(context.Background(), Request{Tenant: "alpha", Query: qs[0], Deadline: 100, ShedBelow: math.NaN()}); err == nil {
		t.Error("shed_below NaN accepted")
	}
	if st := srv.Stats(); st.QueueLen != 0 || st.Tenants[0].Predictions != 0 {
		t.Errorf("refused submits moved the server: queue %d, alpha predictions %d", st.QueueLen, st.Tenants[0].Predictions)
	}
}
