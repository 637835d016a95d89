package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeTraceScenario materializes a scenario file plus an external
// arrival trace next to it, returning the scenario path — the loader
// resolves relative trace_file paths against the scenario's directory.
func writeTraceScenario(t *testing.T, trace string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	scenario := `{
		"name": "trace-replay",
		"seed": 11,
		"horizon": 20,
		"machines": 2,
		"db": "uniform-1G",
		"tenants": [{
			"name": "alpha",
			"bench": "seljoin",
			"queries": 4,
			"deadline": 1.2,
			"slo": {"confidence": 0.9, "default_deadline": 1.2, "quantile": 0.9},
			"arrivals": {"trace_file": "trace.json"}
		}]
	}`
	path := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(path, []byte(scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceFileIngestion runs a scenario whose tenant replays an
// external JSON arrival trace: the offered load is exactly the file's
// in-horizon entries (out-of-order input included — the loader sorts),
// trace_file implies the trace process, and the replay is
// deterministic.
func TestTraceFileIngestion(t *testing.T) {
	// Five entries, deliberately unsorted, one beyond the horizon.
	path := writeTraceScenario(t, `[
		{"at": 4.5, "query": 1},
		{"at": 0.5, "query": 0},
		{"at": 25.0, "query": 3},
		{"at": 2.25, "query": 2},
		{"at": 8.0, "query": 0}
	]`)
	sc, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Tenants[0].Arrivals.TraceFile; !filepath.IsAbs(got) {
		t.Errorf("trace_file not resolved against the scenario directory: %q", got)
	}
	r1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Arrivals != 4 {
		t.Errorf("offered %d arrivals, want the 4 in-horizon trace entries", r1.Arrivals)
	}
	if r1.Tenants[0].Submitted != 4 {
		t.Errorf("tenant submitted %d, want 4", r1.Tenants[0].Submitted)
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("trace replay not deterministic across runs")
	}
}

// TestTraceFileErrors pins ingestion validation: malformed entries are
// rejected with errors naming the offending entry, not silently
// replayed.
func TestTraceFileErrors(t *testing.T) {
	cases := map[string]string{
		"negative time":  `[{"at": -1, "query": 0}]`,
		"index too high": `[{"at": 1, "query": 4}]`,
		"negative index": `[{"at": 1, "query": -1}]`,
		"empty trace":    `[]`,
		"unknown field":  `[{"at": 1, "query": 0, "tenant": "x"}]`,
		"not an array":   `{"at": 1}`,
	}
	for name, trace := range cases {
		sc, err := Load(writeTraceScenario(t, trace))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Run(sc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// A missing file fails loudly too.
	sc, err := Load(writeTraceScenario(t, `[{"at": 1, "query": 0}]`))
	if err != nil {
		t.Fatal(err)
	}
	sc.Tenants[0].Arrivals.TraceFile = filepath.Join(t.TempDir(), "nope.json")
	if _, err := Run(sc); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestTraceFileImpliesProcess pins the schema sugar and its guards:
// trace_file defaults the process to "trace" and needs no rate, while
// combining a trace_file with a synthetic process, or asking for the
// "trace" process without a file to replay, is a config error.
func TestTraceFileImpliesProcess(t *testing.T) {
	a, err := (ArrivalSpec{TraceFile: "x.json"}).normalized(10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Process != ProcessTrace {
		t.Errorf("trace_file normalized to process %q", a.Process)
	}
	if _, err := (ArrivalSpec{Process: ProcessPoisson, Rate: 1, TraceFile: "x.json"}).normalized(10); err == nil {
		t.Error("trace_file on a poisson process accepted")
	}
	if _, err := (ArrivalSpec{Process: ProcessTrace, Rate: -1, TraceFile: "x.json"}).normalized(10); err == nil {
		t.Error("negative rate accepted alongside a trace file")
	}
	if _, err := (ArrivalSpec{Process: ProcessTrace, Rate: 2}).normalized(10); err == nil {
		t.Error("process \"trace\" accepted without a trace_file")
	}
}
