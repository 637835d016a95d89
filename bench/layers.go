package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	uaqetp "repro"
	"repro/internal/cache"
	"repro/internal/calib"
	"repro/internal/calibrate"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/hardware"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/stats"
)

// Per-layer timings taken by calling each layer's public functions
// directly, outside any workload's timed loop.

// fidelityN is the size of the fixed query set of a fidelity phase: a
// cold Measure costs ~35 ms on a 10G database and ~3 ms on a 1G one.
func (o options) fidelityN(kind uaqetp.DBKind) int {
	switch {
	case o.smoke:
		return 8
	case kind == uaqetp.Uniform10G || kind == uaqetp.Skewed10G:
		return 64
	}
	return 128
}

// commonLayers is the tail every traced run shares: the layers behind
// Open, the Executor stage on the fidelity set, and the primitives.
func commonLayers(ctx context.Context, out *outcome, o options, kind uaqetp.DBKind, sys *uaqetp.System, cat *catalog.Catalog) error {
	openLayers(out, kind)
	if err := executorLayers(ctx, out, sys, cat, o.fidelityN(kind)); err != nil {
		return err
	}
	primitives(out, o)
	return nil
}

// openLayers times the four layers behind uaqetp.Open, called with
// Open's own arguments.
func openLayers(out *outcome, kind uaqetp.DBKind) {
	t := time.Now()
	db := datagen.Generate(datagen.ConfigFor(kind, dbSeed))
	out.metrics["open.datagen_s"] = time.Since(t).Seconds()

	t = time.Now()
	catalog.Build(db)
	out.metrics["open.catalog_s"] = time.Since(t).Seconds()

	profile, err := hardware.ProfileByName("PC1")
	if err != nil {
		out.problemf("open layers: %v", err)
		return
	}
	t = time.Now()
	if _, err := calibrate.Run(profile, calibrate.DefaultConfig(dbSeed+1)); err != nil {
		out.problemf("open layers: calibrate: %v", err)
	}
	out.metrics["open.calibrate_s"] = time.Since(t).Seconds()

	t = time.Now()
	if _, err := sample.Build(db, 0.05, sample.DefaultCopies, dbSeed+2); err != nil {
		out.problemf("open layers: sample build: %v", err)
	}
	out.metrics["open.sample_build_s"] = time.Since(t).Seconds()
}

// executorLayers times the Executor stage cold (first run of each plan)
// and warm (run-result section hit) on the fidelity query set, and
// takes the paper's Fig. 9 overhead ratio from Measure on the same set.
func executorLayers(ctx context.Context, out *outcome, sys *uaqetp.System, cat *catalog.Catalog, n int) error {
	qs, err := mixedQueries(cat, fidelityBenches, n, 0)
	if err != nil {
		return err
	}
	plans := make([]*uaqetp.Plan, n)
	for i, q := range qs {
		if plans[i], err = sys.Planner().BuildPlan(ctx, q); err != nil {
			return fmt.Errorf("executor layers: plan %s: %w", q.Name, err)
		}
	}
	pass := func() (time.Duration, error) {
		t := time.Now()
		for i, q := range qs {
			if _, err := sys.Executor().Execute(ctx, q, plans[i]); err != nil {
				return 0, fmt.Errorf("executor layers: execute %s: %w", q.Name, err)
			}
		}
		return time.Since(t), nil
	}
	cold, err := pass()
	if err != nil {
		return err
	}
	before := sys.CacheStats()
	warm, err := pass()
	if err != nil {
		return err
	}
	after := sys.CacheStats()
	out.metrics["executor.execute_cold_us"] = us(cold) / float64(n)
	out.metrics["executor.execute_warm_us"] = us(warm) / float64(n)
	if h, m := after.RunHits-before.RunHits, after.RunMisses-before.RunMisses; h+m > 0 {
		out.metrics["executor.run_hit_share"] = float64(h) / float64(h+m)
	}
	fid, err := measureFidelity(ctx, sys, cat, fidelityBenches, n)
	if err != nil {
		return err
	}
	out.metrics["estimator.overhead_ratio"] = fid.overhead
	return nil
}

var primSink float64

// primitives times the building blocks the hot paths are made of, a
// million calls each.
func primitives(out *outcome, o options) {
	n := 1_000_000
	if o.smoke {
		n = 5_000
	}
	per := func(fn func()) float64 {
		t := time.Now()
		fn()
		return float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	dist := stats.Normal{Mu: 1.5, Sigma: 0.25}
	out.metrics["prim.normal_quantile_ns"] = per(func() {
		for i := 0; i < n; i++ {
			primSink += dist.Quantile(0.05 + 0.9*float64(i&1023)/1024)
		}
	})
	out.metrics["prim.normal_cdf_ns"] = per(func() {
		for i := 0; i < n; i++ {
			primSink += dist.CDF(1 + float64(i&1023)/1024)
		}
	})

	const keys = 1024
	lru := cache.NewLRU[string, int](keys / 2)
	names := make([]string, keys)
	for i := range names {
		names[i] = "plan-signature-" + strconv.Itoa(i)
	}
	// Twice as many keys as capacity: every put inserts and evicts.
	out.metrics["prim.lru_put_ns"] = per(func() {
		for i := 0; i < n; i++ {
			lru.Put(names[i&(keys-1)], i)
		}
	})
	for i := 0; i < keys/2; i++ {
		lru.Put(names[i], i)
	}
	// The resident half: every get hits and moves its entry to the front.
	out.metrics["prim.lru_get_ns"] = per(func() {
		for i := 0; i < n; i++ {
			v, _ := lru.Get(names[i&(keys/2-1)])
			primSink += float64(v)
		}
	})

	var acc calib.Accumulator
	out.metrics["prim.calib_observe_ns"] = per(func() {
		for i := 0; i < n; i++ {
			acc.Observe(1.5, 0.25, 1+float64(i&1023)/1024)
		}
	})
	primSink += float64(acc.N())

	stream := rng.NewStream(7)
	out.metrics["prim.rng_norm_ns"] = per(func() {
		for i := 0; i < n; i++ {
			primSink += stream.NormFloat64()
		}
	})

	q := &uaqetp.Query{
		Name:   "prim",
		Tables: []string{"orders", "lineitem"},
		Preds:  []uaqetp.Predicate{{Col: "o_totalprice", Op: uaqetp.Le, Lo: 1000}, {Col: "l_quantity", Op: uaqetp.Le, Lo: 25}},
		Joins:  []uaqetp.JoinCond{{LeftTable: "orders", LeftCol: "o_orderkey", RightTable: "lineitem", RightCol: "l_orderkey"}},
	}
	body, err := json.Marshal(serve.Request{Tenant: "t0", Query: q, Deadline: 2})
	if err != nil {
		out.problemf("primitives: %v", err)
		return
	}
	// One JSON round trip of a submit body is far slower than the other
	// primitives; a tenth of the calls keeps the pass short.
	jn := n / 10
	t := time.Now()
	for i := 0; i < jn; i++ {
		var req serve.Request
		if err := json.Unmarshal(body, &req); err != nil {
			out.problemf("primitives: %v", err)
			return
		}
		if _, err := json.Marshal(&req); err != nil {
			out.problemf("primitives: %v", err)
			return
		}
	}
	out.metrics["prim.query_json_ns"] = float64(time.Since(t).Nanoseconds()) / float64(jn)
}

// ---------------------------------------------------------------------
// Serving layer, called directly.

type opKind uint8

const (
	opSubmit opKind = iota
	opPredict
	opDrain
)

// mixKind is the kind of op i in the serving mix: of every mixLen ops,
// 12 submits, 3 predicts, 1 drain.
func mixKind(i int) opKind {
	switch k := i % mixLen; {
	case k < 12:
		return opSubmit
	case k < 15:
		return opPredict
	}
	return opDrain
}

// deadline classes of a submit, by construction of the deadline.
const (
	classGenerous   = iota // far beyond any queue wait: always admitted
	classBorderline        // P(T_q <= d) ~ 0.69: passes the front (0.5), refused by the shard (0.9)
	classHopeless          // below the predicted mean: shed by the front before a token is spent
)

// serveOp is one op of the serving mix.
type serveOp struct {
	kind     opKind
	tenant   string
	query    *uaqetp.Query
	deadline float64
	class    int
	shard    int    // drain target
	body     []byte // pre-marshalled request body
}

// serveDirect runs the op sequence against a server through its Go API
// — the same Submit / Predict / StepOneInto the HTTP handlers and the
// simulator call — and reports the mean time of each.
func serveDirect(ctx context.Context, out *outcome, rec *spanRecorder, srv *serve.Server, ops []serveOp) error {
	var step serve.Outcome
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opSubmit:
			t := rec.start()
			_, err := srv.Submit(ctx, serve.Request{Tenant: op.tenant, Query: op.query, Deadline: op.deadline})
			rec.end("serve.submit", t, 0, i+1)
			if err != nil {
				return fmt.Errorf("direct submit %s: %w", op.query.Name, err)
			}
		case opPredict:
			t := rec.start()
			_, err := srv.Predict(ctx, op.tenant, op.query)
			rec.end("serve.predict", t, 0, i+1)
			if err != nil {
				return fmt.Errorf("direct predict %s: %w", op.query.Name, err)
			}
		case opDrain:
			for {
				t := rec.start()
				ok, err := srv.StepOneInto(&step)
				if !ok {
					break
				}
				rec.end("serve.step", t, 0, i+1)
				if err != nil {
					return fmt.Errorf("direct step: %w", err)
				}
				srv.AdvanceClock(step.Finish)
			}
		}
	}
	by := statsByName(rec.snapshot())
	out.metrics["serve.submit_us"] = by["serve.submit"].meanUS()
	out.metrics["serve.predict_us"] = by["serve.predict"].meanUS()
	out.metrics["serve.step_us"] = by["serve.step"].meanUS()
	return nil
}

// serveCounters sums the tenants' traffic counters.
type serveCounters struct {
	predictions, admitted, rejected, executed, execFailed, met, missed uint64
}

func countersOf(servers ...*serve.Server) serveCounters {
	var c serveCounters
	for _, srv := range servers {
		for _, t := range srv.Stats().Tenants {
			c.predictions += t.Predictions
			c.admitted += t.Admitted
			c.rejected += t.Rejected
			c.executed += t.Executed
			c.execFailed += t.ExecFailed
			c.met += t.DeadlinesMet
			c.missed += t.DeadlinesMissed
		}
	}
	return c
}

func (c serveCounters) minus(b serveCounters) serveCounters {
	return serveCounters{
		c.predictions - b.predictions, c.admitted - b.admitted, c.rejected - b.rejected,
		c.executed - b.executed, c.execFailed - b.execFailed, c.met - b.met, c.missed - b.missed,
	}
}

// into reports the counters as the serve.* count metrics. The tenant
// prediction counter, less the pass's plain predict ops, over its
// submits is how often one submit was predicted.
func (c serveCounters) into(out *outcome, plainPredicts, submits uint64) {
	out.metrics["serve.admitted"] = float64(c.admitted)
	out.metrics["serve.rejected"] = float64(c.rejected)
	out.metrics["serve.executed"] = float64(c.executed)
	if done := c.met + c.missed; done > 0 {
		out.metrics["serve.deadline_met_share"] = float64(c.met) / float64(done)
	}
	if submits > 0 {
		out.metrics["serve.predictions_per_submit"] = float64(c.predictions-plainPredicts) / float64(submits)
	}
}
