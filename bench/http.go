package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	uaqetp "repro"
	"repro/internal/catalog"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workload"
)

// serve_http: an in-process shard.Front and two serve.Server shards on
// loopback listeners, driven over real sockets by keep-alive clients in
// a closed loop (a caller waits for its verdict). Every plan has been
// seen, so the estimate cache is only read and the time is the edge:
// sockets, JSON, the front's two shard hops per submit, and warm drains.
//
// The listeners are in-process on purpose: cmd/uaqp's ListenAndServe
// wiring and its 50 ms wall-clock dispatcher stay outside the
// measurement, and an explicit /drain op replaces the dispatcher.

const (
	httpShards  = 2
	httpTenants = 8
	// mixLen is the period of the op mix (mixKind).
	mixLen = 16
)

var httpBenches = []workload.Benchmark{workload.Micro, workload.SelJoin, workload.TPCH}

type httpState struct {
	shards    []*serve.Server
	servers   []*http.Server
	frontURL  string
	shardURLs []string
	client    *http.Client
	tenants   []string
	ops       []serveOp // one cycle of the op sequence
	pool      []*uaqetp.Query
	rec       atomic.Pointer[spanRecorder] // middleware target; nil = pass through
	tenantSys *uaqetp.System               // one tenant's System, for the fidelity phase
	cat       *catalog.Catalog             // harness-side catalog of the tenants' database
}

func (s *httpState) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// listen serves h on a fresh loopback port.
func (s *httpState) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	go srv.Serve(ln) // returns when close() closes the server
	return "http://" + ln.Addr().String(), nil
}

// spanned wraps a handler so that, while a recorder is installed, every
// request leaves a span named layer + path ("front/submit"). The parent
// is left to nestByContainment.
func (s *httpState) spanned(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := s.rec.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		t := rec.start()
		h.ServeHTTP(w, r)
		rec.end(layer+r.URL.Path, t, 0, 0)
	})
}

func setupHTTP(ctx context.Context, o options) (*httpState, error) {
	s := &httpState{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	file := &shard.File{Seed: o.seed}
	for i := 0; i < httpShards; i++ {
		srv := serve.New(serve.Config{})
		var h http.Handler = srv.Handler()
		if o.trace {
			h = s.spanned("shard", h)
		}
		url, err := s.listen(h)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, srv)
		s.shardURLs = append(s.shardURLs, url)
		file.Register("s"+strconv.Itoa(i), url)
	}
	front, err := shard.NewFront(file, shard.FrontConfig{
		// A token rate no closed loop can reach: the bucket never throttles,
		// so every refusal at the front is a predictive shed.
		FrontDoor:  shard.FrontDoorConfig{Rate: 1e9, Burst: 1e9, Predictive: true},
		Confidence: 0.5,
	})
	if err != nil {
		return nil, fmt.Errorf("front: %w", err)
	}
	var fh http.Handler = front.Handler()
	if o.trace {
		fh = s.spanned("front", fh)
	}
	if s.frontURL, err = s.listen(fh); err != nil {
		return nil, err
	}
	n := clients()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 4 * n, MaxIdleConnsPerHost: n}}

	// Tenants go where the front's own directory places them.
	shardOf := map[string]int{"s0": 0, "s1": 1}
	systems := make([]*uaqetp.System, httpShards)
	for i := 0; i < httpTenants; i++ {
		name := fmt.Sprintf("t%d-%d", o.seed, i)
		si := shardOf[front.Directory().Place(name)]
		t, err := s.shards[si].AddTenant(name, uaqetp.Config{DB: uaqetp.Uniform1G, Seed: dbSeed}, serve.SLO{Confidence: 0.9})
		if err != nil {
			return nil, err
		}
		systems[si] = t.System()
		s.tenantSys = t.System()
		s.tenants = append(s.tenants, name)
	}

	poolSize, cycle, warm := 510, 512*mixLen, 4096
	if o.smoke {
		poolSize, cycle, warm = 24, 4*mixLen, 2*mixLen
	}
	s.cat = buildCatalog(uaqetp.Uniform1G)
	if s.pool, err = mixedQueries(s.cat, httpBenches, poolSize, o.seed); err != nil {
		return nil, err
	}
	// Predict every pool query once per shard: it fills each shard's
	// cache, and the deadlines below are built from the distributions.
	dist := make(map[*uaqetp.Query]*uaqetp.Prediction, len(s.pool))
	for _, sys := range systems {
		if sys == nil {
			continue
		}
		for _, q := range s.pool {
			p, err := sys.PredictContext(ctx, q)
			if err != nil {
				return nil, fmt.Errorf("warm predict %s: %w", q.Name, err)
			}
			if !saneDist(p) {
				return nil, fmt.Errorf("warm predict %s: prediction not finite with sigma > 0", q.Name)
			}
			dist[q] = p
		}
	}
	if s.ops, err = buildServeOps(s.pool, s.tenants, dist, cycle, o.seed); err != nil {
		return nil, err
	}

	// Warm-up over the sockets, then leave both queues empty.
	if _, failed, _, err := closedLoop(n, 0, int64(warm), func(_ int, i int64) (time.Duration, error) {
		return s.issue(&s.ops[i%int64(len(s.ops))], nil)
	}); failed > 0 {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if _, err := s.drainAll(); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// buildServeOps lays out one cycle of the op mix. Of every 24 submits
// one is hopeless and one borderline; the other 22 are generous.
func buildServeOps(pool []*uaqetp.Query, tenants []string, dist map[*uaqetp.Query]*uaqetp.Prediction, n int, seed int64) ([]serveOp, error) {
	r := rand.New(rand.NewSource(seed))
	ops := make([]serveOp, n)
	submits := 0
	for i := range ops {
		op := &ops[i]
		op.tenant = tenants[r.Intn(len(tenants))]
		op.query = pool[r.Intn(len(pool))]
		var payload any
		switch op.kind = mixKind(i); op.kind {
		case opSubmit:
			p := dist[op.query]
			switch submits % 24 {
			case 7:
				op.class, op.deadline = classHopeless, p.Mean()/2
			case 19:
				op.class, op.deadline = classBorderline, p.Mean()+p.Sigma()/2
			default:
				// Cycling 2…26 virtual seconds on top of an hour: no queue the
				// closed loop can build comes near it.
				op.class, op.deadline = classGenerous, 3600+float64(2+2*(submits%13))
			}
			submits++
			payload = serve.Request{Tenant: op.tenant, Query: op.query, Deadline: op.deadline}
		case opPredict:
			payload = struct {
				Tenant string        `json:"tenant"`
				Query  *uaqetp.Query `json:"query"`
			}{op.tenant, op.query}
		case opDrain:
			op.shard = (i / mixLen) % httpShards
			continue
		}
		body, err := json.Marshal(payload)
		if err != nil {
			return nil, fmt.Errorf("marshal op %d: %w", i, err)
		}
		op.body = body
	}
	return ops, nil
}

func (op *serveOp) digestLine() string {
	name := ""
	if op.query != nil {
		name = op.query.Name
	}
	return fmt.Sprintf("%d|%s|%s|%g|%d", op.kind, op.tenant, name, op.deadline, op.shard)
}

// httpTally is what the clients saw, summed.
type httpTally struct {
	submits, shed, throttled, admitted, rejected atomic.Int64
	predicts, drains, drained                    atomic.Int64
}

func (s *httpState) post(url string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// issue sends one op, times it to the last body byte, and checks the
// reply: every body decodes, and every verdict is the one the op's
// deadline was built to draw.
func (s *httpState) issue(op *serveOp, tally *httpTally) (time.Duration, error) {
	url := s.frontURL
	switch op.kind {
	case opSubmit:
		url += "/submit"
	case opPredict:
		url += "/predict"
	case opDrain:
		url = s.shardURLs[op.shard] + "/drain"
	}
	t0 := time.Now()
	status, data, err := s.post(url, op.body)
	took := time.Since(t0)
	if err != nil {
		return took, err
	}
	if tally == nil {
		tally = &httpTally{}
	}
	switch op.kind {
	case opSubmit:
		tally.submits.Add(1)
		var reply struct {
			Verdict  string `json:"verdict"`
			Admitted bool   `json:"admitted"`
			ID       uint64 `json:"id"`
		}
		if err := json.Unmarshal(data, &reply); err != nil {
			return took, fmt.Errorf("submit: undecodable body (status %d): %w", status, err)
		}
		got := -1
		switch {
		case status == http.StatusOK && reply.Admitted:
			tally.admitted.Add(1)
			got = classGenerous
		case status == http.StatusTooManyRequests && reply.Verdict == string(shard.VerdictShedPredictive):
			tally.shed.Add(1)
			got = classHopeless
		case status == http.StatusTooManyRequests && reply.Verdict == string(shard.VerdictShedThrottle):
			tally.throttled.Add(1)
		case status == http.StatusTooManyRequests && reply.Verdict == "" && !reply.Admitted:
			tally.rejected.Add(1)
			got = classBorderline
		}
		if got != op.class {
			return took, fmt.Errorf("submit %s deadline %g: status %d verdict %q admitted %v, not what deadline class %d draws",
				op.query.Name, op.deadline, status, reply.Verdict, reply.Admitted, op.class)
		}
	case opPredict:
		tally.predicts.Add(1)
		var reply struct {
			Mean  float64 `json:"mean"`
			Sigma float64 `json:"sigma"`
		}
		if err := json.Unmarshal(data, &reply); err != nil || status != http.StatusOK {
			return took, fmt.Errorf("predict %s: status %d: %v", op.query.Name, status, err)
		}
		if !(reply.Sigma > 0) || math.IsNaN(reply.Mean) || math.IsInf(reply.Mean, 0) || math.IsInf(reply.Sigma, 0) {
			return took, fmt.Errorf("predict %s: prediction not finite with sigma > 0", op.query.Name)
		}
	case opDrain:
		tally.drains.Add(1)
		var reply struct {
			Executed int               `json:"executed"`
			Outcomes []json.RawMessage `json:"outcomes"`
			Error    string            `json:"error"`
		}
		if err := json.Unmarshal(data, &reply); err != nil || status != http.StatusOK {
			return took, fmt.Errorf("drain: status %d: %v %s", status, err, reply.Error)
		}
		if reply.Executed != len(reply.Outcomes) {
			return took, fmt.Errorf("drain: executed %d but %d outcomes", reply.Executed, len(reply.Outcomes))
		}
		tally.drained.Add(int64(reply.Executed))
	}
	return took, nil
}

// drainAll empties every shard's queue over HTTP.
func (s *httpState) drainAll() (int64, error) {
	var tally httpTally
	for i := range s.shardURLs {
		if _, err := s.issue(&serveOp{kind: opDrain, shard: i}, &tally); err != nil {
			return 0, err
		}
	}
	return tally.drained.Load(), nil
}

// clientSpan names the client's span of an op, by kind.
var clientSpan = [...]string{opSubmit: "client/submit", opPredict: "client/predict", opDrain: "client/drain"}

var frontShedRE = regexp.MustCompile(`(?m)^uaqp_front_shed_total\{.*reason="(predictive|throttle)"\} (\d+)$`)

// frontSheds reads the front's shed counters off its /metrics page, the
// only place the front publishes them.
func (s *httpState) frontSheds() (predictive, throttled int64, err error) {
	resp, err := s.client.Get(s.frontURL + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, 0, err
	}
	for _, m := range frontShedRE.FindAllStringSubmatch(string(data), -1) {
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if m[1] == "predictive" {
			predictive += n
		} else {
			throttled += n
		}
	}
	return predictive, throttled, nil
}

// httpPass is one closed-loop pass plus the final drain and the
// conservation check of its counts against the servers' own. With a
// recorder the pass is traced: every op gets a client span, and the
// handler middleware records front and shard spans.
type httpPass struct {
	samples []opSample
	failed  int64
	wall    time.Duration
	tally   httpTally
	serve   serveCounters // the shards' own counters over the pass
	shed    int64         // the front's predictive sheds over the pass
}

func (s *httpState) pass(out *outcome, rec *spanRecorder, nClients int, d time.Duration, maxOps int64) (*httpPass, error) {
	p := &httpPass{}
	before := countersOf(s.shards...)
	shedBefore, throttledBefore, err := s.frontSheds()
	if err != nil {
		return nil, err
	}
	var firstErr error
	s.rec.Store(rec)
	p.samples, p.failed, p.wall, firstErr = closedLoop(nClients, d, maxOps, func(_ int, i int64) (time.Duration, error) {
		op := &s.ops[i%int64(len(s.ops))]
		t := rec.start()
		took, err := s.issue(op, &p.tally)
		rec.end(clientSpan[op.kind], t, 0, int(i)+1)
		if op.kind == opDrain {
			// A drain stands in for the dispatcher; no caller waits on it. Its
			// time is client.drain_us in the traced run.
			took = -1
		}
		return took, err
	})
	s.rec.Store(nil)
	if p.failed > 0 {
		out.failOp(p.failed, "%v", firstErr)
	}
	finalDrained, err := s.drainAll()
	if err != nil {
		return nil, err
	}
	p.serve = countersOf(s.shards...).minus(before)
	shed, throttled, err := s.frontSheds()
	if err != nil {
		return nil, err
	}
	shed, throttled = shed-shedBefore, throttled-throttledBefore
	p.shed = shed

	// Conservation: every submit is accounted for exactly once, by the
	// clients' tally and by the servers' own counters alike. A failed op
	// has already been reported and would only echo here.
	if p.failed > 0 {
		return p, nil
	}
	t := &p.tally
	check := func(what string, got, want int64) {
		if got != want {
			out.problemf("conservation: %s: %d, want %d", what, got, want)
		}
	}
	check("submits = front sheds + shard admitted + shard rejected",
		shed+throttled+int64(p.serve.admitted)+int64(p.serve.rejected), t.submits.Load())
	check("front predictive sheds seen by clients", t.shed.Load(), shed)
	check("front throttle sheds", throttled, 0)
	check("shard admissions seen by clients", t.admitted.Load(), int64(p.serve.admitted))
	check("shard rejections seen by clients", t.rejected.Load(), int64(p.serve.rejected))
	check("executed = admitted after the final drain", int64(p.serve.executed), int64(p.serve.admitted))
	check("outcomes returned by drains", t.drained.Load()+finalDrained, int64(p.serve.executed))
	check("failed executions", int64(p.serve.execFailed), 0)
	return p, nil
}

func runServeHTTP(ctx context.Context, o options) (*outcome, error) {
	out := newOutcome(o)
	s, setupS, err := repeatSetup(o.setupReps(false), func() (*httpState, error) { return setupHTTP(ctx, o) }, (*httpState).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	lines := make([]string, len(s.ops))
	for i := range s.ops {
		lines[i] = s.ops[i].digestLine()
	}
	out.notef("%d tenants on %d shards, pool of %d queries, cycle of %d ops, %d clients, op digest %s",
		len(s.tenants), httpShards, len(s.pool), len(s.ops), clients(), opDigest(lines))
	if o.trace {
		return out, traceServeHTTP(ctx, o, out, s)
	}

	deadline := time.Duration(o.seconds * float64(time.Second))
	p, err := s.pass(out, nil, clients(), deadline, 0)
	if err != nil {
		return nil, err
	}
	if err := out.recordPeakRSS(); err != nil {
		return nil, err
	}
	out.attempted = int64(len(p.samples))
	latencyMetrics(out, p.samples, deadline)
	out.metrics["setup_s"] = setupS
	t := &p.tally
	out.notef("%d submits (%d admitted, %d rejected by a shard, %d shed by the front), %d predicts, %d drains, %d executed",
		t.submits.Load(), t.admitted.Load(), t.rejected.Load(), t.shed.Load(), t.predicts.Load(), t.drains.Load(), p.serve.executed)

	// The fidelity phase runs on a tenant's own System.
	fid, err := measureFidelity(ctx, s.tenantSys, s.cat, fidelityBenches, o.fidelityN(uaqetp.Uniform1G))
	if err != nil {
		return nil, err
	}
	fid.into(out.metrics)
	return out, nil
}

func traceServeHTTP(ctx context.Context, o options, out *outcome, s *httpState) error {
	n := int64(o.seconds*1000) / mixLen * mixLen
	if n < 2*mixLen {
		n = 2 * mixLen
	}
	out.attempted = n

	// Pass 1: full concurrency, untraced — the rate one client is
	// compared with, allocation per op, and the informational p99.
	mark := markMem()
	full, err := s.pass(out, nil, clients(), 0, n)
	if err != nil {
		return err
	}
	allocs, bytes := mark.since()
	// Pass 2: one client, untraced — the baseline the traced pass is
	// priced against.
	bare, err := s.pass(out, nil, 1, 0, n)
	if err != nil {
		return err
	}
	// Pass 3: one client, traced. With one request in flight the front
	// and shard handler spans nest under the client's span by time.
	rec := newSpanRecorder()
	traced, err := s.pass(out, rec, 1, 0, n)
	if err != nil {
		return err
	}

	out.metrics["uaqetp.allocs_per_op"] = float64(allocs) / float64(n)
	out.metrics["uaqetp.bytes_per_op"] = float64(bytes) / float64(n)
	out.metrics["uaqetp.parallel_eff"] = bare.wall.Seconds() / (full.wall.Seconds() * float64(clients()))
	var lat latencies
	for _, sm := range full.samples {
		if sm.lat >= 0 {
			lat = append(lat, sm.lat)
		}
	}
	out.metrics["client.lat_p99_ms"] = percentile(lat.sorted(), 0.99)
	out.metrics["trace.overhead_share"] = (traced.wall.Seconds() - bare.wall.Seconds()) / bare.wall.Seconds()
	out.notef("traced prefix: %d ops; %d clients %.3fs, one client %.3fs bare / %.3fs traced",
		n, clients(), full.wall.Seconds(), bare.wall.Seconds(), traced.wall.Seconds())

	spans := rec.snapshot()
	nestByContainment(spans)
	out.spans = spans
	by := statsByName(spans)
	out.metrics["client.submit_us"] = by["client/submit"].meanUS()
	out.metrics["client.predict_us"] = by["client/predict"].meanUS()
	out.metrics["client.drain_us"] = by["client/drain"].meanUS()
	out.metrics["serve.http_submit_us"] = by["shard/submit"].meanUS()
	out.metrics["serve.http_predict_us"] = by["shard/predict"].meanUS()
	out.metrics["serve.http_drain_us"] = by["shard/drain"].meanUS()
	frontSpans := by["front/submit"].count + by["front/predict"].count
	if frontSpans > 0 {
		out.metrics["front.handler_us"] = float64(by["front/submit"].total+by["front/predict"].total) / float64(frontSpans) / 1e3
		out.metrics["front.self_us"] = float64(by["front/submit"].self+by["front/predict"].self) / float64(frontSpans) / 1e3
	}
	name := make(map[int]string, len(spans))
	for _, sp := range spans {
		name[sp.ID] = sp.Name
	}
	var hops int
	var clientTotal, covered int64
	self := selfTimes(spans)
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "shard/") && name[sp.Parent] == "front/submit" {
			hops++
		}
		if strings.HasPrefix(sp.Name, "client/") {
			clientTotal += sp.dur()
			covered += sp.dur() - self[sp.ID]
		}
	}
	if c := by["front/submit"].count; c > 0 {
		out.metrics["front.shard_calls_per_submit"] = float64(hops) / float64(c)
	}
	if clientTotal > 0 {
		out.metrics["trace.stage_share"] = float64(covered) / float64(clientTotal)
	}
	out.metrics["front.shed_predictive"] = float64(traced.shed)
	traced.serve.into(out, uint64(traced.tally.predicts.Load()), uint64(traced.tally.submits.Load()))

	// The same op sequence against a twin server through the Go API: what
	// is left of a request once the sockets and JSON are taken away.
	twin := serve.New(serve.Config{})
	t0 := time.Now()
	for _, name := range s.tenants {
		if _, err := twin.AddTenant(name, uaqetp.Config{DB: uaqetp.Uniform1G, Seed: dbSeed}, serve.SLO{Confidence: 0.9}); err != nil {
			return err
		}
	}
	out.metrics["serve.add_tenant_s"] = time.Since(t0).Seconds()
	prefix := make([]serveOp, n)
	for i := range prefix {
		prefix[i] = s.ops[i%len(s.ops)]
	}
	// First pass warms the twin's cache; the second is measured.
	if err := serveDirect(ctx, out, newSpanRecorder(), twin, prefix); err != nil {
		return err
	}
	if err := serveDirect(ctx, out, newSpanRecorder(), twin, prefix); err != nil {
		return err
	}
	out.metrics["serve.edge_us"] = out.metrics["serve.http_submit_us"] - out.metrics["serve.submit_us"]

	tenant, err := twin.Tenant(s.tenants[0])
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := uaqetp.Open(uaqetp.Config{DB: uaqetp.Uniform1G, Seed: dbSeed}); err != nil {
		return err
	}
	out.metrics["open.total_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	if _, err := mixedQueries(s.cat, httpBenches, len(s.pool), o.seed); err != nil {
		return err
	}
	out.metrics["workload.generate_s"] = time.Since(t0).Seconds()
	return commonLayers(ctx, out, o, uaqetp.Uniform1G, tenant.System(), s.cat)
}
