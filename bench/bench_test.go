package main

import (
	"bytes"
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	uaqetp "repro"
	"repro/internal/workload"
)

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0.50, false}, // even the median has only nine beyond it
		{20, 0.50, true},
		{40, 0.75, true},
		{100, 0.90, true},
		{199, 0.90, true}, // p95 would leave nine
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{2048, 0.99, true}, // 20 beyond p99, 2 beyond p99.9
		{10000, 0.999, true},
	}
	for _, c := range cases {
		got, ok := supportedPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.95: 10, 1: 10, 0.01: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "plan", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "estimate", Start: 30, End: 80},
		{ID: 4, Parent: 3, Name: "pass", Start: 40, End: 60},
		// Two concurrent workers under one batch: the covered part is the
		// union of their intervals, not the sum.
		{ID: 5, Name: "batch", Start: 200, End: 300},
		{ID: 6, Parent: 5, Name: "worker", Start: 210, End: 260},
		{ID: 7, Parent: 5, Name: "worker", Start: 240, End: 290},
		// A child that outlives its parent is clipped to it.
		{ID: 8, Name: "outer", Start: 400, End: 450},
		{ID: 9, Parent: 8, Name: "late", Start: 440, End: 470},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 30, 2: 20, 3: 30, 4: 20, 5: 20, 6: 50, 7: 50, 8: 40, 9: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	by := statsByName(spans)
	if by["worker"].count != 2 || by["worker"].total != 100 {
		t.Errorf("worker stats = %+v", by["worker"])
	}
}

func TestNestByContainment(t *testing.T) {
	// One client request containing a front span containing two shard
	// spans, then a drain that goes to a shard directly.
	spans := []span{
		{ID: 1, Name: "shard/predict", Start: 20, End: 30},
		{ID: 2, Name: "shard/submit", Start: 40, End: 60},
		{ID: 3, Name: "front/submit", Start: 10, End: 70},
		{ID: 4, Name: "client/submit", Start: 0, End: 80, Req: 7},
		{ID: 5, Name: "shard/drain", Start: 100, End: 150},
		{ID: 6, Name: "client/drain", Start: 90, End: 160, Req: 8},
	}
	nestByContainment(spans)
	wantParent := map[int]int{1: 3, 2: 3, 3: 4, 4: 0, 5: 6, 6: 0}
	wantReq := map[int]int{1: 7, 2: 7, 3: 7, 4: 7, 5: 8, 6: 8}
	for _, s := range spans {
		if s.Parent != wantParent[s.ID] || s.Req != wantReq[s.ID] {
			t.Errorf("span %d (%s): parent %d req %d, want parent %d req %d", s.ID, s.Name, s.Parent, s.Req, wantParent[s.ID], wantReq[s.ID])
		}
	}
	if self := selfTimes(spans); self[3] != 30 || self[4] != 20 {
		t.Errorf("front self %d (want 30), client self %d (want 20)", self[3], self[4])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3, ok := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, %v; want 2.75, 8.25", q1, q3, ok)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3, _ := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %g, %g; want 1, 4", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		exact  bool
		want   string
	}{
		{"unchanged", steady, []float64{100, 102, 98}, "lower", 0.10, false, statusOK},
		{"slower beyond the bound", steady, []float64{120, 121, 119}, "lower", 0.10, false, statusRegressed},
		{"faster", steady, []float64{80, 81, 79}, "lower", 0.10, false, statusOK},
		{"throughput drop", steady, []float64{80, 81, 79}, "higher", 0.10, false, statusRegressed},
		{"spread wider than the bound", []float64{100, 140, 60}, []float64{105, 150, 70}, "lower", 0.10, false, statusUnresolved},
		{"noisy but every run better", []float64{100, 140, 90}, []float64{50, 80, 60}, "lower", 0.10, false, statusOK},
		{"exact metric moved the wrong way", []float64{0.25, 0.25}, []float64{0.2501, 0.2501}, "lower", 0.05, true, statusRegressed},
		{"exact metric unchanged", []float64{0.25, 0.25}, []float64{0.25, 0.25}, "lower", 0.05, true, statusOK},
	}
	for _, c := range cases {
		if got, _, _ := verdict(c.a, c.b, c.better, c.bound, c.exact); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResultsRows(t *testing.T) {
	mk := func(ops float64, admitted float64) *resultFile {
		f := &resultFile{}
		for i := 0; i < 3; i++ {
			f.Runs = append(f.Runs,
				runRecord{Workload: "serve_http", Seed: 1, result: result{Correct: true, Attempted: 10,
					Metrics: map[string]metricValue{"ops_per_s": {ops + float64(i), "1/s"}}}},
				runRecord{Workload: "serve_http", Seed: 1, Trace: true, result: result{Correct: true, Attempted: 10,
					Metrics: map[string]metricValue{"serve.admitted": {admitted, "count"}}}})
		}
		return f
	}
	var buf bytes.Buffer
	if code := compareResults(&buf, mk(9000, 132), mk(9010, 132)); code != 0 {
		t.Errorf("same commit: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareResults(&buf, mk(9000, 132), mk(7000, 131)); code != 1 {
		t.Errorf("regression: exit %d\n%s", code, buf.String())
	}
	if out := buf.String(); strings.Count(out, statusRegressed) < 2 {
		t.Errorf("want ops_per_s and serve.admitted both regressed:\n%s", out)
	}
}

func TestOpDigestFollowsSeed(t *testing.T) {
	ctx := context.Background()
	sys, err := uaqetp.Open(uaqetp.Config{DB: uaqetp.Uniform1G, Seed: dbSeed})
	if err != nil {
		t.Fatal(err)
	}
	cat := buildCatalog(uaqetp.Uniform1G)
	digest := func(seed int64) string {
		qs, err := distinctQueries(ctx, sys, cat, coldBenches, 48, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) != 48 {
			t.Fatalf("seed %d: %d queries, want exactly 48", seed, len(qs))
		}
		shuffle(qs, seed)
		seen := make(map[string]bool)
		for _, q := range qs {
			p, err := sys.Planner().BuildPlan(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if seen[p.String()] {
				t.Fatalf("seed %d: plan signature repeats: %s", seed, p)
			}
			seen[p.String()] = true
		}
		d, err := queryDigest(ctx, sys, qs)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b, c := digest(1), digest(1), digest(2)
	if a != b {
		t.Errorf("equal seeds gave digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave the same digest %s", a)
	}

	// A generator that cannot reach n distinct signatures fails set-up
	// loudly instead of measuring a warmer workload.
	if _, err := distinctQueries(ctx, sys, cat, nil, 48, 1); err == nil || !strings.Contains(err.Error(), "pairwise-distinct") {
		t.Errorf("shortfall: err = %v, want a pairwise-distinct error", err)
	}
	if _, err := distinctQueries(ctx, sys, cat, []workload.Benchmark{workload.Benchmark(99)}, 4, 1); err == nil {
		t.Errorf("unknown benchmark: no error")
	}
}

func TestTolerantScenarioLoader(t *testing.T) {
	for _, name := range []string{"cluster", "sharded"} {
		sc, dropped, err := loadScenario(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Horizon <= 0 || len(sc.Tenants) == 0 {
			t.Errorf("%s: loaded an empty scenario: %+v", name, sc)
		}
		// Today sim.Load knows every optional key; the day the roadmap
		// deletes one, it shows up here and the benchmark keeps running.
		t.Logf("%s: optional keys dropped: %v", name, dropped)
	}

	body := func(optional string) []byte {
		return []byte(`{"optional": [` + optional + `], "scenario": {
			"name": "t", "horizon": 1, "machines": 1, "db": "uniform-1G", "warp_factor": 9,
			"tenants": [{"name": "a", "bench": "micro", "arrivals": {"process": "poisson", "rate": 1}}]}}`)
	}
	sc, dropped, err := loadScenarioBytes("t", body(`"warp_factor"`))
	if err != nil {
		t.Fatalf("optional unknown key: %v", err)
	}
	if len(dropped) != 1 || dropped[0] != "warp_factor" || sc.Name != "t" {
		t.Errorf("dropped %v, scenario %q; want [warp_factor], t", dropped, sc.Name)
	}
	if _, _, err := loadScenarioBytes("t", body(`"rng"`)); err == nil || !strings.Contains(err.Error(), "warp_factor") {
		t.Errorf("unknown key not marked optional: err = %v, want it rejected by name", err)
	}
	if left, _ := filepath.Glob(".bench_tmp*"); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestSmokeAllWorkloads runs every workload end to end, timed and
// traced, at about 1/200 of every size.
func TestSmokeAllWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 1, seconds: 0.05, trace: trace, smoke: true}
			out, err := runWorkload(ctx, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			res := toResult(o, out)
			if !res.Correct {
				t.Errorf("%s trace=%v: output checks failed: %v", w.Name, trace, out.problems)
			}
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), want)
			}
			if !trace {
				for name, v := range res.Metrics {
					if !(v.Value > 0) || math.IsInf(v.Value, 0) {
						t.Errorf("%s: end-to-end metric %s = %g, want a positive finite number", w.Name, name, v.Value)
					}
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result line: %v", w.Name, trace, err)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables in metrics.go in step: same names, units, directions, bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) || len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end, %d per-layer; tables have %d, %d, %d",
			len(file.Workloads), len(file.EndToEnd), len(file.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, table %+v", i, file.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	setup := false
	for i, m := range endToEnd {
		f := file.EndToEnd[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, table %+v", i, f, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Errorf("no setup_s metric in s, lower is better")
	}
	seen := make(map[string]bool)
	for _, m := range endToEnd {
		seen[m.Name] = true
	}
	for i, m := range perLayer {
		f := file.PerLayer[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, table %+v", i, f, m)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
}

// TestNoDeprecatedAPI keeps the harness on the API the roadmap keeps:
// no v1 method of uaqetp.System (they take no context), no BatchOptions,
// and no Config.RNG — so deleting those does not touch the benchmark.
func TestNoDeprecatedAPI(t *testing.T) {
	v1 := map[string]bool{
		"Predict": true, "Execute": true, "PredictAndRun": true, "Alternatives": true,
		"ChoosePlan": true, "PredictBatch": true, "ExecuteBatch": true, "PredictPlanned": true,
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files++
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || !v1[sel.Sel.Name] {
						return true
					}
					// Every surviving method of these names — the stage
					// interfaces, serve.Server.Predict — takes a context first.
					if first, ok := firstArg(n).(*ast.Ident); !ok || first.Name != "ctx" {
						t.Errorf("%s: call to %s without a context: a deprecated v1 method?", fset.Position(n.Pos()), sel.Sel.Name)
					}
				case *ast.SelectorExpr:
					if n.Sel.Name == "RNG" || n.Sel.Name == "BatchOptions" || n.Sel.Name == "RNGv1" || n.Sel.Name == "RNGv2" {
						t.Errorf("%s: use of %s", fset.Position(n.Pos()), n.Sel.Name)
					}
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok && k.Name == "RNG" {
						t.Errorf("%s: a Config sets RNG", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
	if files < 5 {
		t.Errorf("parsed %d files; is the test running in bench/?", files)
	}
}

func firstArg(c *ast.CallExpr) ast.Expr {
	if len(c.Args) == 0 {
		return nil
	}
	return c.Args[0]
}
