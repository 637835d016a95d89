package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	uaqetp "repro"
	"repro/internal/catalog"
	"repro/internal/pool"
	"repro/internal/workload"
)

// The two library workloads: cold_predict (PredictBatchContext over
// unseen plans) and plan_choice (ChoosePlanContext over unseen plans on
// skewed data). Both are closed loops over a cycle of pairwise-distinct
// plan signatures far longer than the estimate cache, so that every op
// misses the whole-plan section however many times the cycle repeats.

const batchSize = 16

var coldBenches = []workload.Benchmark{workload.SelJoin, workload.TPCH}

// libState is what set-up leaves behind for a library workload.
type libState struct {
	kind    uaqetp.DBKind
	sys     *uaqetp.System
	cat     *catalog.Catalog
	queries []*uaqetp.Query
	openS   float64 // uaqetp.Open
	genS    float64 // workload.Generate + dedupe
}

// setupLibrary is the whole path to the first timed op: Open, the
// harness-side catalog, generation and dedupe of n distinct plans,
// shuffle.
func setupLibrary(ctx context.Context, kind uaqetp.DBKind, n int, seed int64) (*libState, error) {
	t0 := time.Now()
	sys, err := uaqetp.Open(uaqetp.Config{DB: kind, Seed: dbSeed})
	if err != nil {
		return nil, fmt.Errorf("open %v: %w", kind, err)
	}
	st := &libState{kind: kind, sys: sys, openS: time.Since(t0).Seconds()}
	st.cat = buildCatalog(kind)
	t1 := time.Now()
	if st.queries, err = distinctQueries(ctx, sys, st.cat, coldBenches, n, seed); err != nil {
		return nil, err
	}
	st.genS = time.Since(t1).Seconds()
	shuffle(st.queries, seed)
	return st, nil
}

// repeatSetup runs build reps times and reports the median wall time,
// keeping the last build for the measurement. Set-up is a gated metric
// of its own, so that work moved out of the timed loop shows up here.
func repeatSetup[T any](reps int, build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		// Each repetition starts from a collected heap, like the first.
		var zero T
		last = zero
		runtime.GC()
		t0 := time.Now()
		st, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = st
	}
	return last, median(times), nil
}

// setupReps is how many times a timed run sets up: the median of three
// (of five where set-up is a fraction of a second) is what setup_s reports.
func (o options) setupReps(quick bool) int {
	switch {
	case o.trace || o.smoke:
		return 1
	case quick:
		return 5
	}
	return 3
}

// opSample is one completed op of a timed loop: when it completed,
// counted from the loop's start, how long it took, and how many ops it
// stands for (a batch stands for its queries).
type opSample struct {
	at     time.Duration
	lat    float64 // ms
	weight int64
}

// closedLoop runs op(worker, i) for i = 0, 1, 2, … from n goroutines,
// each starting its next op when the previous one returns, until d has
// passed (maxOps == 0) or exactly maxOps ops have been issued. op
// returns the latency it measured around the call under test, so that
// output checks stay out of the latency (they remain in the
// throughput). A negative latency marks an op that counts towards the
// throughput but is not a latency sample (serve_http's drains). A failed
// op is counted and the loop goes on.
func closedLoop(n int, d time.Duration, maxOps int64, op func(worker int, i int64) (time.Duration, error)) (samples []opSample, failed int64, wall time.Duration, firstErr error) {
	var next atomic.Int64
	var nFailed atomic.Int64
	var errOnce sync.Once
	perWorker := make([][]opSample, n)
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if maxOps == 0 && time.Since(start) >= d {
					return
				}
				i := next.Add(1) - 1
				if maxOps > 0 && i >= maxOps {
					return
				}
				took, err := op(w, i)
				if err != nil {
					nFailed.Add(1)
					errOnce.Do(func() { firstErr = err })
				}
				perWorker[w] = append(perWorker[w], opSample{time.Since(start), ms(took), 1})
			}
		}(w)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, l := range perWorker {
		samples = append(samples, l...)
	}
	return samples, nFailed.Load(), wall, firstErr
}

func saneDist(p *uaqetp.Prediction) bool {
	return p != nil && !math.IsNaN(p.Mean()) && !math.IsInf(p.Mean(), 0) &&
		!math.IsNaN(p.Sigma()) && !math.IsInf(p.Sigma(), 0) && p.Sigma() > 0
}

// latencyMetrics turns a timed loop's samples into ops_per_s, lat_p50_ms
// and lat_p95_ms. The run is cut into windows of one second; each
// metric is computed per window and the median over the windows is
// reported, so that a stall of the box during one second of a run does
// not decide the run's number. A window's rate is its ops over the time
// from the previous window's last completion to its own last completion,
// so the rate is not rounded to whole ops per window width. The
// whole-run figures go into the notes.
func latencyMetrics(out *outcome, samples []opSample, d time.Duration) {
	nWin := int(d / time.Second)
	if nWin < 1 {
		nWin = 1
	}
	width := d / time.Duration(nWin)
	sort.Slice(samples, func(a, b int) bool { return samples[a].at < samples[b].at })
	var rate, p50, p95 []float64
	var all latencies
	var total int64
	for _, sm := range samples {
		total += sm.weight
		if sm.lat >= 0 {
			all = append(all, sm.lat)
		}
	}
	// Ops still in flight when the time was up complete beyond the last
	// window and are left out of every window.
	var prevEnd time.Duration
	var ops int64 // completed since prevEnd
	i := 0
	for w := 0; w < nWin; w++ {
		var lat latencies
		for ; i < len(samples) && samples[i].at < time.Duration(w+1)*width; i++ {
			ops += samples[i].weight
			if samples[i].lat >= 0 {
				lat = append(lat, samples[i].lat)
			}
		}
		if len(lat) == 0 {
			continue
		}
		end := samples[i-1].at
		sorted := lat.sorted()
		rate = append(rate, float64(ops)/(end-prevEnd).Seconds())
		p50 = append(p50, percentile(sorted, 0.50))
		p95 = append(p95, percentile(sorted, 0.95))
		prevEnd, ops = end, 0
	}
	out.metrics["ops_per_s"] = median(rate)
	out.metrics["lat_p50_ms"] = median(p50)
	out.metrics["lat_p95_ms"] = median(p95)
	s := all.sorted()
	p, ok := supportedPercentile(len(s) / nWin)
	out.notef("%d ops, %d latency samples in %d windows of %v; per window the highest supported percentile is p%g (ten beyond it: %v)",
		total, len(s), len(rate), width, p*100, ok)
	out.notef("whole run: p50 %.6g ms, p95 %.6g ms, p99 %.6g ms", percentile(s, 0.50), percentile(s, 0.95), percentile(s, 0.99))
}

// ---------------------------------------------------------------------
// cold_predict

func runColdPredict(ctx context.Context, o options) (*outcome, error) {
	out := newOutcome(o)
	kind, distinct := uaqetp.Uniform10G, 16384
	if o.smoke {
		kind, distinct = uaqetp.Uniform1G, 96
	}
	st, setupS, err := repeatSetup(o.setupReps(false), func() (*libState, error) {
		return setupLibrary(ctx, kind, distinct, o.seed)
	}, nil)
	if err != nil {
		return nil, err
	}
	digest, err := queryDigest(ctx, st.sys, st.queries)
	if err != nil {
		return nil, err
	}
	out.notef("%v, %d distinct plans in batches of %d, op digest %s", kind, distinct, batchSize, digest)
	batches := make([][]*uaqetp.Query, 0, distinct/batchSize)
	for i := 0; i+batchSize <= len(st.queries); i += batchSize {
		batches = append(batches, st.queries[i:i+batchSize])
	}
	if o.trace {
		return out, traceColdPredict(ctx, o, out, st, batches)
	}

	// Timed run: whole batches until the time is up; an op is one query.
	type kept struct {
		batch int
		preds []*uaqetp.Prediction
	}
	var sample []kept
	var samples []opSample
	deadline := time.Duration(o.seconds * float64(time.Second))
	runtime.GC()
	mark := markMem()
	start := time.Now()
	for i := 0; time.Since(start) < deadline; i++ {
		b := batches[i%len(batches)]
		t0 := time.Now()
		preds, err := st.sys.PredictBatchContext(ctx, b)
		samples = append(samples, opSample{time.Since(start), ms(time.Since(t0)), int64(len(b))})
		out.attempted += int64(len(b))
		if err != nil {
			out.failOp(int64(len(b)), "batch %d: %v", i, err)
			continue
		}
		for k, p := range preds {
			if !saneDist(p) {
				out.failOp(1, "batch %d query %s: prediction not finite with sigma > 0", i, b[k].Name)
			}
		}
		// A 1/64 sample of the first cycle is re-predicted serially below.
		if i < len(batches) && i%64 == 0 {
			sample = append(sample, kept{i, preds})
		}
	}
	allocs, bytes := mark.since()
	if err := out.recordPeakRSS(); err != nil {
		return nil, err
	}
	ops := out.attempted
	latencyMetrics(out, samples, deadline)
	out.metrics["setup_s"] = setupS
	out.notef("timed loop: %.0f allocs/query, %.0f B/query", float64(allocs)/float64(ops), float64(bytes)/float64(ops))

	// Output check: the batch path is bit-equal to serial PredictContext.
	// By now the cache has long evicted these plans, so the serial call
	// recomputes them.
	for _, k := range sample {
		for j, q := range batches[k.batch] {
			p, err := st.sys.PredictContext(ctx, q)
			if err != nil {
				out.problemf("serial predict %s: %v", q.Name, err)
				continue
			}
			if math.Float64bits(p.Mean()) != math.Float64bits(k.preds[j].Mean()) ||
				math.Float64bits(p.Sigma()) != math.Float64bits(k.preds[j].Sigma()) {
				out.problemf("batch %d query %s: batch prediction differs from serial PredictContext", k.batch, q.Name)
			}
		}
	}
	out.notef("serial cross-check on %d batches", len(sample))

	fid, err := measureFidelity(ctx, st.sys, st.cat, fidelityBenches, o.fidelityN(st.kind))
	if err != nil {
		return nil, err
	}
	fid.into(out.metrics)
	return out, nil
}

// predictStages is PredictContext taken apart into its stage calls
// under one request span.
func predictStages(ctx context.Context, sys *uaqetp.System, rec *spanRecorder, q *uaqetp.Query, parent, req int) (*uaqetp.Prediction, error) {
	rid := rec.reserve()
	t0 := rec.start()
	defer func() { rec.fill(rid, "request", t0, parent, req) }()

	t := rec.start()
	p, err := sys.Planner().BuildPlan(ctx, q)
	rec.end("planner.build", t, rid, req)
	if err != nil {
		return nil, err
	}
	t = rec.start()
	est, err := sys.Estimator().Estimate(ctx, p)
	rec.end("estimator.estimate", t, rid, req)
	if err != nil {
		return nil, err
	}
	t = rec.start()
	pred, err := sys.Predictor().Predict(ctx, p, est)
	rec.end("predictor.predict", t, rid, req)
	return pred, err
}

// replayBatches replays the batches through predictStages on the batch
// API's own worker pool (pool.RunCtx with default workers, as
// PredictBatchContext uses it).
func replayBatches(ctx context.Context, sys *uaqetp.System, rec *spanRecorder, batches [][]*uaqetp.Query) (time.Duration, error) {
	start := time.Now()
	for bi, b := range batches {
		bid := rec.reserve()
		t0 := rec.start()
		errs := pool.RunCtx(ctx, len(b), 0, func(k int) error {
			pred, err := predictStages(ctx, sys, rec, b[k], bid, bi*batchSize+k+1)
			if err == nil && !saneDist(pred) {
				err = fmt.Errorf("query %s: prediction not finite with sigma > 0", b[k].Name)
			}
			return err
		})
		rec.fill(bid, "batch", t0, 0, 0)
		if err := pool.FirstError(errs); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// stageMetrics turns the replay's spans into the per-stage metrics.
func stageMetrics(out *outcome, spans []span, ops int64) {
	by := statsByName(spans)
	perOp := func(name string) float64 { return float64(by[name].self) / float64(ops) / 1e3 }
	out.metrics["planner.build_us"] = perOp("planner.build")
	out.metrics["planner.alternatives_us"] = perOp("planner.alternatives")
	out.metrics["estimator.estimate_us"] = perOp("estimator.estimate")
	out.metrics["predictor.predict_us"] = perOp("predictor.predict")
	stages := by["planner.build"].total + by["planner.alternatives"].total +
		by["estimator.estimate"].total + by["predictor.predict"].total
	if req := by["request"].total; req > 0 {
		out.metrics["trace.stage_share"] = float64(stages) / float64(req)
		if share := out.metrics["trace.stage_share"]; share < 0.95 && !out.smoke {
			out.problemf("stage spans cover %.3f of their request spans, below 0.95", share)
		}
	}
}

func cacheDeltaMetrics(out *outcome, before, after uaqetp.CacheStats, ops int64) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses > 0 {
		out.metrics["estimator.miss_share"] = float64(misses) / float64(hits+misses)
	}
	sh, sm := after.SubtreeHits-before.SubtreeHits, after.SubtreeMisses-before.SubtreeMisses
	if sh+sm > 0 {
		out.metrics["estimator.subtree_hit_share"] = float64(sh) / float64(sh+sm)
	}
	out.metrics["estimator.evictions_per_op"] = float64(after.Evictions-before.Evictions) / float64(ops)
}

func traceColdPredict(ctx context.Context, o options, out *outcome, st *libState, batches [][]*uaqetp.Query) error {
	// The traced prefix is a fixed batch count, so its counts repeat
	// exactly per seed.
	n := int(o.seconds * 32)
	if n < 4 {
		n = 4
	}
	if n > len(batches) {
		n = len(batches)
	}
	prefix := batches[:n]
	ops := int64(n * batchSize)
	out.attempted = ops

	runBatches := func(opts ...uaqetp.CallOption) error {
		for i, b := range prefix {
			if _, err := st.sys.PredictBatchContext(ctx, b, opts...); err != nil {
				return fmt.Errorf("batch %d: %w", i, err)
			}
		}
		return nil
	}
	// Pass 1, the timed run's own call at its own concurrency: allocation
	// per op and the full-concurrency rate.
	mark := markMem()
	t0 := time.Now()
	if err := runBatches(); err != nil {
		return err
	}
	full := time.Since(t0)
	allocs, bytes := mark.since()
	// Pass 2, one worker: what one client achieves alone.
	t0 = time.Now()
	if err := runBatches(uaqetp.WithWorkers(1)); err != nil {
		return err
	}
	single := time.Since(t0)
	out.metrics["uaqetp.allocs_per_op"] = float64(allocs) / float64(ops)
	out.metrics["uaqetp.bytes_per_op"] = float64(bytes) / float64(ops)
	out.metrics["uaqetp.parallel_eff"] = single.Seconds() / (full.Seconds() * float64(runtime.GOMAXPROCS(0)))

	// Passes 3 and 4: the stage replay without and with spans. Their
	// difference is what tracing costs.
	bare, err := replayBatches(ctx, st.sys, nil, prefix)
	if err != nil {
		return err
	}
	rec := newSpanRecorder()
	before := st.sys.CacheStats()
	traced, err := replayBatches(ctx, st.sys, rec, prefix)
	if err != nil {
		return err
	}
	cacheDeltaMetrics(out, before, st.sys.CacheStats(), ops)
	out.spans = rec.snapshot()
	stageMetrics(out, out.spans, ops)
	out.metrics["trace.overhead_share"] = (traced.Seconds() - bare.Seconds()) / bare.Seconds()
	out.notef("traced prefix: %d batches (%d queries); untraced %.3fs, one worker %.3fs, stage replay %.3fs bare / %.3fs traced",
		n, ops, full.Seconds(), single.Seconds(), bare.Seconds(), traced.Seconds())

	out.metrics["open.total_s"] = st.openS
	out.metrics["workload.generate_s"] = st.genS
	return commonLayers(ctx, out, o, st.kind, st.sys, st.cat)
}

// ---------------------------------------------------------------------
// plan_choice

const choiceQuantile = 0.9

// checkChoice is plan_choice's output check: the chosen plan is one of
// the alternatives and no alternative has a smaller 0.9-quantile.
func checkChoice(best uaqetp.PlanChoice, all []uaqetp.PlanChoice) error {
	if len(all) == 0 || best.Pred == nil {
		return fmt.Errorf("no plan chosen")
	}
	found := false
	cost := best.Pred.Dist.Quantile(choiceQuantile)
	for _, c := range all {
		if !saneDist(c.Pred) {
			return fmt.Errorf("alternative prediction not finite with sigma > 0")
		}
		if c.Plan == best.Plan {
			found = true
		}
		if c.Pred.Dist.Quantile(choiceQuantile) < cost {
			return fmt.Errorf("an alternative has a smaller %.1f-quantile than the chosen plan", choiceQuantile)
		}
	}
	if !found {
		return fmt.Errorf("chosen plan is not among its alternatives")
	}
	return nil
}

func runPlanChoice(ctx context.Context, o options) (*outcome, error) {
	out := newOutcome(o)
	kind, distinct := uaqetp.Skewed10G, 4096
	if o.smoke {
		kind, distinct = uaqetp.Skewed1G, 48
	}
	st, setupS, err := repeatSetup(o.setupReps(false), func() (*libState, error) {
		return setupLibrary(ctx, kind, distinct, o.seed)
	}, nil)
	if err != nil {
		return nil, err
	}
	digest, err := queryDigest(ctx, st.sys, st.queries)
	if err != nil {
		return nil, err
	}
	out.notef("%v, %d distinct plans, %d clients, op digest %s", kind, distinct, clients(), digest)
	if o.trace {
		return out, tracePlanChoice(ctx, o, out, st)
	}

	choose := func(_ int, i int64) (time.Duration, error) {
		q := st.queries[i%int64(len(st.queries))]
		t0 := time.Now()
		best, all, err := st.sys.ChoosePlanContext(ctx, q, uaqetp.WithQuantile(choiceQuantile))
		took := time.Since(t0)
		if err != nil {
			return took, fmt.Errorf("choose %s: %w", q.Name, err)
		}
		if err := checkChoice(best, all); err != nil {
			return took, fmt.Errorf("choose %s: %w", q.Name, err)
		}
		return took, nil
	}
	deadline := time.Duration(o.seconds * float64(time.Second))
	samples, failed, _, firstErr := closedLoop(clients(), deadline, 0, choose)
	if err := out.recordPeakRSS(); err != nil {
		return nil, err
	}
	out.attempted = int64(len(samples))
	if failed > 0 {
		out.failOp(failed, "%v", firstErr)
	}
	latencyMetrics(out, samples, deadline)
	out.metrics["setup_s"] = setupS

	fid, err := measureFidelity(ctx, st.sys, st.cat, fidelityBenches, o.fidelityN(st.kind))
	if err != nil {
		return nil, err
	}
	fid.into(out.metrics)
	return out, nil
}

// chooseStages is ChoosePlanContext taken apart into its stage calls.
func chooseStages(ctx context.Context, sys *uaqetp.System, rec *spanRecorder, q *uaqetp.Query, req int) (alts int, err error) {
	rid := rec.reserve()
	t0 := rec.start()
	defer func() { rec.fill(rid, "request", t0, 0, req) }()

	t := rec.start()
	plans, err := sys.Planner().Alternatives(ctx, q, uaqetp.DefaultMaxAlts)
	rec.end("planner.alternatives", t, rid, req)
	if err != nil {
		return 0, err
	}
	if len(plans) == 0 {
		return 0, fmt.Errorf("choose %s: no alternatives", q.Name)
	}
	stage := sys.Predictor()
	for _, p := range plans {
		t = rec.start()
		est, err := sys.Estimator().Estimate(ctx, p)
		rec.end("estimator.estimate", t, rid, req)
		if err != nil {
			return 0, err
		}
		t = rec.start()
		pred, err := stage.Predict(ctx, p, est)
		rec.end("predictor.predict", t, rid, req)
		if err != nil {
			return 0, err
		}
		if !saneDist(pred) {
			return 0, fmt.Errorf("choose %s: prediction not finite with sigma > 0", q.Name)
		}
	}
	return len(plans), nil
}

func tracePlanChoice(ctx context.Context, o options, out *outcome, st *libState) error {
	n := int64(o.seconds * 200)
	if n < 16 {
		n = 16
	}
	if n > int64(len(st.queries)) {
		n = int64(len(st.queries))
	}
	out.attempted = n
	choose := func(_ int, i int64) (time.Duration, error) {
		t0 := time.Now()
		_, _, err := st.sys.ChoosePlanContext(ctx, st.queries[i], uaqetp.WithQuantile(choiceQuantile))
		return time.Since(t0), err
	}
	mark := markMem()
	_, _, full, err := closedLoop(clients(), 0, n, choose)
	if err != nil {
		return err
	}
	allocs, bytes := mark.since()
	_, _, single, err := closedLoop(1, 0, n, choose)
	if err != nil {
		return err
	}
	out.metrics["uaqetp.allocs_per_op"] = float64(allocs) / float64(n)
	out.metrics["uaqetp.bytes_per_op"] = float64(bytes) / float64(n)
	out.metrics["uaqetp.parallel_eff"] = single.Seconds() / (full.Seconds() * float64(clients()))

	var totalAlts atomic.Int64
	replay := func(rec *spanRecorder) (time.Duration, error) {
		_, _, wall, err := closedLoop(clients(), 0, n, func(_ int, i int64) (time.Duration, error) {
			t0 := time.Now()
			alts, err := chooseStages(ctx, st.sys, rec, st.queries[i], int(i)+1)
			totalAlts.Add(int64(alts))
			return time.Since(t0), err
		})
		return wall, err
	}
	bare, err := replay(nil)
	if err != nil {
		return err
	}
	totalAlts.Store(0)
	rec := newSpanRecorder()
	before := st.sys.CacheStats()
	traced, err := replay(rec)
	if err != nil {
		return err
	}
	cacheDeltaMetrics(out, before, st.sys.CacheStats(), n)
	out.spans = rec.snapshot()
	stageMetrics(out, out.spans, n)
	out.metrics["planner.alts_per_op"] = float64(totalAlts.Load()) / float64(n)
	out.metrics["trace.overhead_share"] = (traced.Seconds() - bare.Seconds()) / bare.Seconds()
	out.notef("traced prefix: %d ops; untraced %.3fs, one client %.3fs, stage replay %.3fs bare / %.3fs traced",
		n, full.Seconds(), single.Seconds(), bare.Seconds(), traced.Seconds())

	out.metrics["open.total_s"] = st.openS
	out.metrics["workload.generate_s"] = st.genS
	return commonLayers(ctx, out, o, st.kind, st.sys, st.cat)
}
