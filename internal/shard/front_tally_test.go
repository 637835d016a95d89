package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
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

// TestFrontClassTallyIsBounded: a submission's SLO class arrives in the
// request body, so the front door's per-class tally must stop growing at
// maxTrackedClasses — while every submission past the cap still gets a
// verdict, and still spends and refunds its token. The shard admits one
// submission in three, sheds one predictively and refuses the third, so
// the bucket must end exactly one token down per admission.
func TestFrontClassTallyIsBounded(t *testing.T) {
	var answered atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch answered.Add(1) % 3 {
		case 0:
			w.WriteHeader(http.StatusOK)
		case 1:
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"verdict":"shed-predictive"}`)
		default:
			w.WriteHeader(http.StatusBadRequest)
		}
	}))
	defer backend.Close()
	file := &File{Seed: 42}
	file.Register("shard-0", backend.URL)
	const n = 2 * maxTrackedClasses
	burst := float64(n + 10)
	front, err := NewFront(file, FrontConfig{FrontDoor: FrontDoorConfig{Rate: 1e-9, Burst: burst}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()

	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"tenant":"t","class":"class-%05d","query":{"Name":"q"}}`, i)
		resp, err := http.Post(ts.URL+"/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want := [...]int{http.StatusOK, http.StatusTooManyRequests, http.StatusBadRequest}[(i+1)%3]; resp.StatusCode != want {
			t.Fatalf("class %d: status %d, want the shard's %d", i, resp.StatusCode, want)
		}
	}
	if got := answered.Load(); got != n {
		t.Errorf("the shard answered %d of %d submissions", got, n)
	}
	classes := front.fd.Counters()
	if len(classes) > maxTrackedClasses {
		t.Errorf("front door tallies %d classes after %d distinct ones, want at most the cap %d", len(classes), n, maxTrackedClasses)
	}
	// The tallied classes are the first cap submitted; the rest refund
	// into no entry.
	var admitted, shed, wantAdmitted, wantShed uint64
	for _, c := range classes {
		admitted += c.Admitted
		shed += c.ShedPredictive
	}
	for i := range min(n, maxTrackedClasses) {
		switch (i + 1) % 3 {
		case 0:
			wantAdmitted++
		case 1:
			wantShed++
		}
	}
	if admitted != wantAdmitted || shed != wantShed {
		t.Errorf("tallied %d admitted and %d shed, want %d and %d", admitted, shed, wantAdmitted, wantShed)
	}
	front.fd.mu.Lock()
	tokens := front.fd.tokens
	front.fd.mu.Unlock()
	if want := burst - float64(n/3); math.Abs(tokens-want) > 0.01 {
		t.Errorf("bucket holds %.3f tokens after %d admissions from %g, want %g", tokens, n/3, burst, want)
	}
}

// TestFrontMetricsEscapeClassLabels: a class arrives in the request
// body, so the front's /metrics must write it as the text exposition
// format escapes a label value — only backslash, double quote and line
// feed — or one request makes every later scrape unparseable.
func TestFrontMetricsEscapeClassLabels(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()
	file := &File{Seed: 42}
	file.Register("shard-0", backend.URL)
	front, err := NewFront(file, FrontConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()

	for class, label := range map[string]string{
		"a\tb":       "\"a\tb\"",
		`say "hi"`:   `"say \"hi\""`,
		`C:\dir`:     `"C:\\dir"`,
		"two\nlines": `"two\nlines"`,
		"café 東京":    `"café 東京"`,
	} {
		body, err := json.Marshal(map[string]any{"tenant": "t", "class": class, "query": map[string]string{"Name": "q"}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		resp, err = http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		scrape, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if line := "uaqp_front_admitted_total{class=" + label + "} 1\n"; !strings.Contains(string(scrape), line) {
			t.Errorf("class %q: scrape lacks %q", class, line)
		}
	}
}
