package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	uaqetp "repro"
	"repro/internal/workload"
)

// panickingPredictor stands in for a predictor with a bug.
type panickingPredictor struct{}

func (panickingPredictor) Predict(context.Context, *uaqetp.Plan, *uaqetp.Estimates) (*uaqetp.Prediction, error) {
	panic("predictor stub panics")
}

// panickingTenant registers tenant "boom", whose predictor panics, on a
// fresh server and returns one query to send it.
func panickingTenant(t *testing.T) (*Server, *uaqetp.Query) {
	t.Helper()
	sys, err := uaqetp.Open(uaqetp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sys.GenerateWorkload(workload.SelJoin, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	if _, err := srv.AddTenantSystem("boom", sys.With(uaqetp.WithPredictor(panickingPredictor{})), SLO{}); err != nil {
		t.Fatal(err)
	}
	return srv, qs[0]
}

// TestHandlerPanicAnswers500: a panic inside a request answers 500 with
// the usual JSON error body rather than dropping the connection, the
// server keeps serving, and /metrics counts the panic.
func TestHandlerPanicAnswers500(t *testing.T) {
	srv, q := panickingTenant(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/predict", PredictRequest{Tenant: "boom", Query: q})
	var e httpError
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "predictor stub panics") {
		t.Errorf("panic answered %s (decode: %v), want the JSON error body naming the panic", body, err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panic answered %d, want 500", resp.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the panic: %d, want 200", hz.StatusCode)
	}
	if got := metricLine(t, ts.URL, "uaqp_recovered_panics_total"); got != "uaqp_recovered_panics_total 1" {
		t.Errorf("/metrics after one panic: %q", got)
	}
}

// metricLine scrapes url's /metrics and returns the sample line of the
// unlabeled metric name ("" when absent).
func metricLine(t *testing.T, url, name string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	return ""
}

// TestRecoverLeavesStartedResponses: a handler that panics after it
// started answering keeps its own status (only a log line and the
// count are added), and http.ErrAbortHandler still aborts, uncounted.
func TestRecoverLeavesStartedResponses(t *testing.T) {
	var panics atomic.Uint64
	started := Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusAccepted, "partial")
		panic("after the header")
	}), &panics)
	rec := httptest.NewRecorder()
	started.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusAccepted || strings.Contains(rec.Body.String(), "error") {
		t.Errorf("started response became %d %q, want the handler's own 202", rec.Code, rec.Body)
	}

	if n := panics.Load(); n != 1 {
		t.Errorf("%d panics counted, want 1", n)
	}

	aborted := Recover(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}), &panics)
	defer func() {
		if v := recover(); v != http.ErrAbortHandler {
			t.Errorf("recovered %v, want http.ErrAbortHandler re-panicked", v)
		}
		if n := panics.Load(); n != 1 {
			t.Errorf("%d panics counted after an abort, want 1", n)
		}
	}()
	aborted.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	t.Error("http.ErrAbortHandler was swallowed")
}
