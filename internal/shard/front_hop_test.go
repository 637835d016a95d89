package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	uaqetp "repro"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// hopFixture is a real serve.Server shard behind a Front, with a
// recording middleware on the shard: every request the shard sees adds
// one to hops, leaves its body in lastBody and, when hold is set, calls
// it before serving; every connection the shard accepts adds one to
// conns.
type hopFixture struct {
	srv      *serve.Server
	front    *Front
	url      string // the front
	shardURL string
	hops     atomic.Int64
	conns    atomic.Int64
	qs       []*uaqetp.Query // generated SelJoin and TPCH queries

	mu       sync.Mutex
	lastBody []byte
	hold     func()
}

func newHopFixture(t *testing.T, cfg FrontConfig) *hopFixture {
	t.Helper()
	fx := &hopFixture{srv: serve.New(serve.Config{})}
	tenant, err := fx.srv.AddTenant("alpha", uaqetp.DefaultConfig(), serve.SLO{Confidence: 0.9, DefaultDeadline: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []workload.Benchmark{workload.SelJoin, workload.TPCH} {
		qs, err := tenant.System().GenerateWorkload(kind, 4)
		if err != nil {
			t.Fatal(err)
		}
		fx.qs = append(fx.qs, qs...)
	}
	h := fx.srv.Handler()
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fx.hops.Add(1)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		fx.mu.Lock()
		fx.lastBody = body
		hold := fx.hold
		fx.mu.Unlock()
		if hold != nil {
			hold()
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
	}))
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			fx.conns.Add(1)
		}
	}
	backend.Start()
	t.Cleanup(backend.Close)
	fx.shardURL = backend.URL
	file := &File{Seed: 42}
	file.Register("shard-0", backend.URL)
	if fx.front, err = NewFront(file, cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(fx.front.Handler())
	t.Cleanup(ts.Close)
	fx.url = ts.URL
	return fx
}

// reply is the union of the JSON bodies /predict and /submit answer.
type reply struct {
	Verdict  string  `json:"verdict"`
	Reason   string  `json:"reason"`
	Shard    string  `json:"shard"`
	PMeet    float64 `json:"p_meet"`
	Admitted bool    `json:"admitted"`
	ID       uint64  `json:"id"`
	Mean     float64 `json:"mean"`
	Sigma    float64 `json:"sigma"`
}

func post(t *testing.T, url string, body any) (int, reply) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r reply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("%s: undecodable reply (status %d): %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode, r
}

// predicted is the shard's own /predict reply for q: the numbers the
// front's predictive check used to fetch in a hop of its own.
func (fx *hopFixture) predicted(t *testing.T, q *uaqetp.Query) (mu, sigma float64) {
	t.Helper()
	status, r := post(t, fx.shardURL+"/predict", serve.PredictRequest{Tenant: "alpha", Query: q})
	if status != http.StatusOK || !(r.Sigma > 0) {
		t.Fatalf("predict %s: status %d, %+v", q.Name, status, r)
	}
	return r.Mean, r.Sigma
}

func (fx *hopFixture) submit(t *testing.T, tenant string, q *uaqetp.Query, deadline, confidence float64) (int, reply) {
	t.Helper()
	return post(t, fx.url+"/submit", map[string]any{"tenant": tenant, "query": q, "deadline": deadline, "confidence": confidence})
}

func (fx *hopFixture) counters(class string) ClassCounters {
	for _, c := range fx.front.fd.Counters() {
		if c.Class == class {
			return c
		}
	}
	return ClassCounters{Class: class}
}

// TestFrontVerdictMatchesPredictRule: the front's predictive verdict and
// p_meet, now computed by the shard inside /submit, equal bit for bit
// what the front's former rule computed from the shard's /predict reply
// — P(T_q <= d) under N(mean, sigma) below the confidence sheds — on
// deadlines spread around the mean and on the two adjacent floats that
// straddle P = confidence.
func TestFrontVerdictMatchesPredictRule(t *testing.T) {
	fx := newHopFixture(t, FrontConfig{FrontDoor: FrontDoorConfig{Predictive: true}, Confidence: 0.9})
	sheds, passes := 0, 0
	for _, q := range fx.qs {
		mu, sigma := fx.predicted(t, q)
		dist := stats.Normal{Mu: mu, Sigma: sigma}
		for _, conf := range []float64{0.9, 0.5} {
			// Bisect to the adjacent floats lo < hi with P(lo) < conf <= P(hi).
			lo, hi := mu-10*sigma, mu+10*sigma
			for mid := lo + (hi-lo)/2; mid != lo && mid != hi; mid = lo + (hi-lo)/2 {
				if dist.CDF(mid) < conf {
					lo = mid
				} else {
					hi = mid
				}
			}
			if math.Nextafter(lo, hi) != hi || !(dist.CDF(lo) < conf) || dist.CDF(hi) < conf {
				t.Fatalf("%s: bisection ended at %v, %v", q.Name, lo, hi)
			}
			deadlines := []float64{math.Nextafter(lo, 0), lo, hi, math.Nextafter(hi, math.Inf(1))}
			for _, k := range []float64{-2, -0.5, 0, 0.5, 2} {
				deadlines = append(deadlines, mu+k*sigma)
			}
			for _, d := range deadlines {
				if d <= 0 {
					continue
				}
				p := dist.CDF(d)
				status, r := fx.submit(t, "alpha", q, d, conf)
				if p < conf {
					sheds++
					reason := fmt.Sprintf("P(T_q <= %.4g) = %.4f below confidence %.4f with zero wait", d, p, conf)
					if status != http.StatusTooManyRequests || r.Verdict != string(VerdictShedPredictive) ||
						math.Float64bits(r.PMeet) != math.Float64bits(p) || r.Shard != "shard-0" || r.Reason != reason {
						t.Errorf("%s d=%v conf %v: status %d %+v, want shed-predictive with p_meet %v", q.Name, d, conf, status, r, p)
					}
					continue
				}
				passes++
				if r.Verdict != "" || (status != http.StatusOK && status != http.StatusTooManyRequests) {
					t.Errorf("%s d=%v conf %v (P %v): status %d %+v, want the shard's own decision", q.Name, d, conf, p, status, r)
				}
			}
			if _, err := fx.srv.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sheds == 0 || passes == 0 {
		t.Fatalf("%d sheds and %d passes: the deadlines do not exercise both verdicts", sheds, passes)
	}
}

// TestFrontSubmitIsOneHop: every front submit reaches the shard exactly
// once. A shed adds one prediction and nothing else on the shard — no
// admission, no rejection, no Decision ID — and is neither counted as
// forwarded nor as admitted by the front door.
func TestFrontSubmitIsOneHop(t *testing.T) {
	fx := newHopFixture(t, FrontConfig{FrontDoor: FrontDoorConfig{Rate: 1e-9, Burst: 10, Predictive: true}, Confidence: 0.9})
	q := fx.qs[0]
	mu, sigma := fx.predicted(t, q)
	feasible, hopeless := mu+10*sigma, mu-2*sigma
	var lastID uint64
	for i, d := range []float64{feasible, hopeless, feasible, hopeless, 0} {
		before, hops := fx.srv.Stats().Tenants[0], fx.hops.Load()
		status, r := fx.submit(t, "alpha", q, d, 0)
		after := fx.srv.Stats().Tenants[0]
		if n := fx.hops.Load() - hops; n != 1 {
			t.Errorf("submit %d: %d shard requests, want 1", i, n)
		}
		if after.Predictions != before.Predictions+1 {
			t.Errorf("submit %d: %d predictions, want 1", i, after.Predictions-before.Predictions)
		}
		if d == hopeless {
			if status != http.StatusTooManyRequests || r.Verdict != string(VerdictShedPredictive) ||
				after.Admitted != before.Admitted || after.Rejected != before.Rejected {
				t.Errorf("hopeless submit %d: status %d %+v, shard counters %+v -> %+v", i, status, r, before, after)
			}
			continue
		}
		if status != http.StatusOK || !r.Admitted || r.ID != lastID+1 {
			t.Errorf("submit %d: status %d %+v, want admitted with ID %d", i, status, r, lastID+1)
		}
		lastID = r.ID
	}
	c := fx.counters("alpha")
	if c.Admitted != 3 || c.ShedPredictive != 2 || c.ShedThrottled != 0 {
		t.Errorf("front door %+v, want 3 admitted, 2 predictive sheds", c)
	}
	fx.front.mu.Lock()
	n := fx.front.forwarded["shard-0"]
	fx.front.mu.Unlock()
	if n != 3 {
		t.Errorf("forwarded %d, want the 3 submits the shard admitted", n)
	}
}

// TestFrontEmptyBucketThrottlesWithoutHop: a shed returns its token, so
// a feasible submit after a hopeless one is still admitted; once the
// bucket is empty every submit is throttled at the front without a
// shard hop, hopeless or not (there is no bound to label it with).
func TestFrontEmptyBucketThrottlesWithoutHop(t *testing.T) {
	fx := newHopFixture(t, FrontConfig{FrontDoor: FrontDoorConfig{Rate: 1e-9, Burst: 1, Predictive: true}, Confidence: 0.9})
	q := fx.qs[0]
	mu, sigma := fx.predicted(t, q)
	feasible, hopeless := mu+10*sigma, mu-2*sigma
	if status, r := fx.submit(t, "alpha", q, hopeless, 0); r.Verdict != string(VerdictShedPredictive) {
		t.Fatalf("hopeless: status %d %+v", status, r)
	}
	if status, r := fx.submit(t, "alpha", q, feasible, 0); status != http.StatusOK {
		t.Fatalf("feasible after a shed: status %d %+v, want the returned token to admit it", status, r)
	}
	hops := fx.hops.Load()
	for _, d := range []float64{hopeless, feasible} {
		status, r := fx.submit(t, "alpha", q, d, 0)
		if status != http.StatusTooManyRequests || r.Verdict != string(VerdictShedThrottle) || r.PMeet != 0 {
			t.Errorf("deadline %v on an empty bucket: status %d %+v, want shed-throttle", d, status, r)
		}
	}
	if n := fx.hops.Load() - hops; n != 0 {
		t.Errorf("throttled submits made %d shard requests", n)
	}
	if c := fx.counters("alpha"); c.Admitted != 1 || c.ShedPredictive != 1 || c.ShedThrottled != 2 {
		t.Errorf("front door %+v, want 1 admitted, 1 predictive, 2 throttled", c)
	}
}

// TestFrontRefundsWhatNoShardAccepted: a forwarded submit answered with
// neither 200 nor 429 (unknown tenant, a query the shard cannot predict,
// an unreachable shard) returns its token and is not counted admitted,
// so with a one-token bucket the feasible submit after it still gets in.
func TestFrontRefundsWhatNoShardAccepted(t *testing.T) {
	fx := newHopFixture(t, FrontConfig{FrontDoor: FrontDoorConfig{Rate: 1e-9, Burst: 1}})
	q := fx.qs[0]
	if status, _ := fx.submit(t, "nobody", q, 1, 0); status != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d, want the shard's 404", status)
	}
	if status, _ := post(t, fx.url+"/submit", map[string]any{"tenant": "alpha", "query": map[string]any{"Name": "empty"}, "class": "bad"}); status != http.StatusBadRequest {
		t.Fatalf("unpredictable query: status %d, want the shard's 400", status)
	}
	if status, r := fx.submit(t, "alpha", q, 1, 0); status != http.StatusOK || !r.Admitted {
		t.Fatalf("feasible submit after refused ones: status %d %+v", status, r)
	}
	for _, class := range []string{"nobody", "bad"} {
		if c := fx.counters(class); c.Admitted != 0 || c.ShedPredictive != 0 || c.ShedThrottled != 0 {
			t.Errorf("class %s: %+v, want nothing tallied", class, c)
		}
	}

	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	file := &File{Seed: 42}
	file.Register("shard-0", down.URL)
	front, err := NewFront(file, FrontConfig{FrontDoor: FrontDoorConfig{Rate: 1e-9, Burst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		if status, _ := post(t, ts.URL+"/submit", map[string]any{"tenant": "alpha", "query": q}); status != http.StatusBadGateway {
			t.Errorf("submit %d to a down shard: status %d, want 502 (not a throttle)", i, status)
		}
	}
	if cs := front.fd.Counters(); len(cs) != 1 || cs[0].Admitted != 0 {
		t.Errorf("front door after a down shard: %+v, want nothing admitted", cs)
	}
}

// TestFrontValidatesConfidenceAndDeadline: the front refuses a
// confidence outside (0, 1) at construction, and answers 400 — before
// the front door or a shard sees it — for a submission whose confidence
// is outside (0, 1) or whose deadline is negative. 0 still selects the
// default.
func TestFrontValidatesConfidenceAndDeadline(t *testing.T) {
	file := &File{Seed: 42}
	file.Register("shard-0", "http://127.0.0.1:1")
	for _, c := range []struct {
		confidence float64
		ok         bool
	}{{0, true}, {0.5, true}, {0.99, true}, {-0.5, false}, {1, false}, {2, false}, {math.NaN(), false}, {math.Inf(1), false}} {
		if _, err := NewFront(file, FrontConfig{Confidence: c.confidence}); (err == nil) != c.ok {
			t.Errorf("NewFront(confidence %v): err %v, want ok %v", c.confidence, err, c.ok)
		}
	}

	fx := newHopFixture(t, FrontConfig{FrontDoor: FrontDoorConfig{Rate: 1e-9, Burst: 1, Predictive: true}})
	q := fx.qs[0]
	for _, c := range []struct{ deadline, confidence float64 }{{1, -0.5}, {1, 1}, {1, 1.5}, {-1, 0}, {-1, 0.9}} {
		if status, _ := fx.submit(t, "alpha", q, c.deadline, c.confidence); status != http.StatusBadRequest {
			t.Errorf("deadline %v confidence %v: status %d, want 400", c.deadline, c.confidence, status)
		}
	}
	if n, cs := fx.hops.Load(), fx.front.fd.Counters(); n != 0 || len(cs) != 0 {
		t.Errorf("refused submissions reached %d shard requests, front door %+v", n, cs)
	}
	if status, r := fx.submit(t, "alpha", q, 1, 0); status != http.StatusOK {
		t.Errorf("default confidence: status %d %+v", status, r)
	}
}

// TestFrontConcurrentSubmitsReconcile: submits from several goroutines
// at once, half of them hopeless, each make one hop, and the front
// door's tallies reconcile with the shard's own counters.
func TestFrontConcurrentSubmitsReconcile(t *testing.T) {
	fx := newHopFixture(t, FrontConfig{FrontDoor: FrontDoorConfig{Rate: 1e-9, Burst: 1000, Predictive: true}, Confidence: 0.9})
	q := fx.qs[0]
	mu, sigma := fx.predicted(t, q)
	const workers, each = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				d := mu + 10*sigma
				if i%2 == 1 {
					d = mu - 2*sigma
				}
				body, _ := json.Marshal(map[string]any{"tenant": "alpha", "query": q, "deadline": d})
				resp, err := http.Post(fx.url+"/submit", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	st, c := fx.srv.Stats().Tenants[0], fx.counters("alpha")
	if n := fx.hops.Load() - 1; n != workers*each {
		t.Errorf("%d shard requests for %d submits", n, workers*each)
	}
	if c.ShedPredictive != workers*each/2 || c.Admitted != st.Admitted+st.Rejected || c.Admitted != workers*each/2 {
		t.Errorf("front door %+v, shard admitted %d rejected %d", c, st.Admitted, st.Rejected)
	}
	fx.front.fd.mu.Lock()
	tokens := fx.front.fd.tokens
	fx.front.fd.mu.Unlock()
	if math.Abs(tokens-(1000-workers*each/2)) > 1e-3 {
		t.Errorf("%v tokens left, want one spent per forwarded submit", tokens)
	}
}

// TestFrontHopCarriesClientContext: the shard hop runs under the client
// request's context, so a client that gives up cancels the shard's
// request at once instead of leaving the shard working and the front
// waiting out its client timeout. The shard here blocks until its
// request context ends.
func TestFrontHopCarriesClientContext(t *testing.T) {
	for _, path := range []string{"/predict", "/submit"} {
		t.Run(path, func(t *testing.T) {
			entered := make(chan struct{}, 1)
			canceled := make(chan struct{}, 1)
			release := make(chan struct{})
			backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				// A server watches for a client's disconnect only once
				// the request body is consumed, as a real shard's is.
				io.Copy(io.Discard, r.Body)
				entered <- struct{}{}
				select {
				case <-r.Context().Done():
					canceled <- struct{}{}
				case <-release:
				}
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
			// Deferred after the closes so it runs first: a hop that
			// ignored the cancellation still ends before they wait on it.
			defer close(release)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path,
				strings.NewReader(`{"tenant": "alpha", "query": {"Name": "q"}}`))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					resp.Body.Close()
				}
				done <- err
			}()
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the request never reached the shard")
			}
			cancel()
			select {
			case <-canceled:
			case <-time.After(5 * time.Second):
				t.Fatal("the shard's request context was not canceled after the client gave up")
			}
			if err := <-done; err == nil {
				t.Error("the canceled client request returned no error")
			}
		})
	}
}

// TestFrontHopFitsShardLimit: the hop adds shed_below and a newline to
// the client's compact body, so a /submit at the size limit would reach
// the shard over it. The front answers such a body 413 itself, before
// any token or hop, and forwards the largest body whose hop is exactly
// at the limit, which the shard reads whole.
func TestFrontHopFitsShardLimit(t *testing.T) {
	fx := newHopFixture(t, FrontConfig{FrontDoor: FrontDoorConfig{Predictive: true}, Confidence: 0.9})
	body := func(n int) string {
		const head, tail = `{"tenant":"alpha","query":{"Name":"`, `"},"deadline":1}`
		return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
	}
	send := func(b string) (int, string) {
		resp, err := http.Post(fx.url+"/submit", "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("undecodable reply (status %d): %v", resp.StatusCode, err)
		}
		return resp.StatusCode, e.Error
	}

	status, msg := send(body(serve.MaxBodyBytes))
	if status != http.StatusRequestEntityTooLarge || fx.hops.Load() != 0 {
		t.Errorf("a %d-byte body: status %d after %d hops (%q), want the front's 413 and no hop", serve.MaxBodyBytes, status, fx.hops.Load(), msg)
	}
	if c := fx.counters("alpha"); c.Admitted != 0 {
		t.Errorf("a refused body moved the front door: %+v", c)
	}

	hop := len(`,"shed_below":0.9` + "\n")
	status, msg = send(body(serve.MaxBodyBytes - hop))
	fx.mu.Lock()
	forwarded := len(fx.lastBody)
	fx.mu.Unlock()
	if fx.hops.Load() != 1 || forwarded != serve.MaxBodyBytes {
		t.Fatalf("a %d-byte body: %d hops, last hop %d bytes, want one hop of %d", serve.MaxBodyBytes-hop, fx.hops.Load(), forwarded, serve.MaxBodyBytes)
	}
	if status == http.StatusRequestEntityTooLarge {
		t.Errorf("the shard refused a forwarded body for its size: %q", msg)
	}
}
