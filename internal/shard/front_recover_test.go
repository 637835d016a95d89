package shard

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	uaqetp "repro"
	"repro/internal/serve"
	"repro/internal/workload"
)

// panickingPredictor stands in for a predictor with a bug.
type panickingPredictor struct{}

func (panickingPredictor) Predict(context.Context, *uaqetp.Plan, *uaqetp.Estimates) (*uaqetp.Prediction, error) {
	panic("predictor stub panics")
}

// panickingTransport stands in for a bug on the front's own hop.
type panickingTransport struct{}

func (panickingTransport) RoundTrip(*http.Request) (*http.Response, error) {
	panic("transport stub panics")
}

// TestFrontPanicAnswers500: a /predict that panics, on the shard (the
// tenant's predictor) or in the front itself (its hop), reaches the
// client as a 500 with the JSON error body naming the panic rather than
// a dropped connection or a 502, the front keeps serving, and the tier
// that panicked counts it on its /metrics.
func TestFrontPanicAnswers500(t *testing.T) {
	sys, err := uaqetp.Open(uaqetp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	qs, err := sys.GenerateWorkload(workload.SelJoin, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{})
	if _, err := srv.AddTenantSystem("boom", sys.With(uaqetp.WithPredictor(panickingPredictor{})), serve.SLO{}); err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(srv.Handler())
	defer backend.Close()
	body, err := json.Marshal(serve.PredictRequest{Tenant: "boom", Query: qs[0]})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, panic string
		client      *http.Client
		// The panics each tier's /metrics gains from the request.
		shardPanics, frontPanics int
	}{
		{"shard", "predictor stub panics", nil, 1, 0},
		{"front", "transport stub panics", &http.Client{Transport: panickingTransport{}}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := &File{Seed: 42}
			file.Register("shard-0", backend.URL)
			front, err := NewFront(file, FrontConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.client != nil {
				front.client = tc.client
			}
			ts := httptest.NewServer(front.Handler())
			defer ts.Close()
			shardBefore := panicCount(t, backend.URL, "uaqp_recovered_panics_total")

			resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			var e struct {
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusInternalServerError {
				t.Errorf("panic answered %d, want 500", resp.StatusCode)
			}
			if err != nil || !strings.Contains(e.Error, tc.panic) {
				t.Errorf("panic answered %+v (decode: %v), want the JSON error body naming %q", e, err, tc.panic)
			}
			hz, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			hz.Body.Close()
			if hz.StatusCode != http.StatusOK {
				t.Errorf("/healthz after the panic: %d, want 200", hz.StatusCode)
			}
			if got := panicCount(t, backend.URL, "uaqp_recovered_panics_total") - shardBefore; got != tc.shardPanics {
				t.Errorf("the shard counted %d panics, want %d", got, tc.shardPanics)
			}
			if got := panicCount(t, ts.URL, "uaqp_front_recovered_panics_total"); got != tc.frontPanics {
				t.Errorf("the front counted %d panics, want %d", got, tc.frontPanics)
			}
		})
	}
}

// panicCount scrapes url's /metrics for the unlabeled counter name.
func panicCount(t *testing.T, url, name string) int {
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
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}
