package shard_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	uaqetp "repro"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestFrontOversizeBody: the front refuses a /submit or /predict body
// past the 1 MiB limit with 413 and the usual error body before it
// places or forwards anything, and keeps routing normal requests to the
// tenant's shard afterwards.
func TestFrontOversizeBody(t *testing.T) {
	srv := serve.New(serve.Config{})
	tenant, err := srv.AddTenant("alpha", uaqetp.DefaultConfig(), serve.SLO{Confidence: 0.9, DefaultDeadline: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := tenant.System().GenerateWorkload(workload.SelJoin, 1)
	if err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(srv.Handler())
	defer backend.Close()

	file := &shard.File{Seed: 42}
	file.Register("shard-0", backend.URL)
	front, err := shard.NewFront(file, shard.FrontConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()

	huge := `{"tenant":"alpha","query":{"Name":"` + strings.Repeat("x", 2<<20) + `"}}`
	for _, path := range []string{"/submit", "/predict"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize %s: status %d, want 413", path, resp.StatusCode)
		}
		if err != nil || e.Error == "" {
			t.Errorf("oversize %s: error body %+v (decode: %v)", path, e, err)
		}
	}
	if n := srv.Stats().Tenants[0].Predictions; n != 0 {
		t.Errorf("oversize requests reached the shard: %d predictions", n)
	}

	for _, c := range []struct {
		path string
		body map[string]any
	}{
		{"/predict", map[string]any{"tenant": "alpha", "query": qs[0]}},
		{"/submit", map[string]any{"tenant": "alpha", "query": qs[0], "deadline": 100}},
	} {
		b, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s after oversize: status %d: %s", c.path, resp.StatusCode, out.Bytes())
		}
	}

	// Both tiers decode through serve.DecodeBody: a body padded to exactly
	// 1 MiB passes both, one byte more passes neither.
	b, err := json.Marshal(map[string]any{"tenant": "alpha", "query": qs[0]})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		size, want int
	}{{1 << 20, http.StatusOK}, {1<<20 + 1, http.StatusRequestEntityTooLarge}} {
		body := strings.Repeat(" ", c.size-len(b)) + string(b)
		for name, url := range map[string]string{"shard": backend.URL, "front": ts.URL} {
			resp, err := http.Post(url+"/predict", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("%s, %d-byte body: status %d, want %d", name, c.size, resp.StatusCode, c.want)
			}
		}
	}
}
