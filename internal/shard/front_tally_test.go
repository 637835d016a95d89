package shard

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// TestFrontTenantTallyIsBounded: tenant names arrive in request bodies,
// so the front's distinct-tenant tally must stop growing at
// maxTrackedTenants — while every request past the cap is still placed
// on and answered by its shard.
func TestFrontTenantTallyIsBounded(t *testing.T) {
	var answered atomic.Int64
	file := &File{Seed: 42}
	for _, name := range []string{"shard-0", "shard-1"} {
		backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			answered.Add(1)
			w.WriteHeader(http.StatusOK)
		}))
		defer backend.Close()
		file.Register(name, backend.URL)
	}
	front, err := NewFront(file, FrontConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()

	const n = 2 * maxTrackedTenants
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"tenant":"tenant-%05d","query":{"Name":"q"}}`, i)
		resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %d: status %d, want the shard's 200", i, resp.StatusCode)
		}
	}
	if got := answered.Load(); got != n {
		t.Errorf("shards answered %d of %d requests", got, n)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	tallied := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "uaqp_front_shard_tenants{"); ok {
			v, err := strconv.Atoi(rest[strings.LastIndexByte(rest, ' ')+1:])
			if err != nil {
				t.Fatalf("gauge line %q: %v", sc.Text(), err)
			}
			tallied += v
		}
	}
	if tallied != maxTrackedTenants {
		t.Errorf("uaqp_front_shard_tenants sums to %d after %d distinct tenants, want the cap %d", tallied, n, maxTrackedTenants)
	}
}
