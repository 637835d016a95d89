package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// These tests pin the shipped scenarios' outputs to committed goldens,
// byte for byte. The v1 golden was recorded before the versioned
// measurement stream existed: scenario.json carries no "rng" key, so it
// is the standing proof that unversioned scenarios still produce
// exactly the pre-seam bytes. The v2 goldens pin the migrated
// scenarios' streams so a generator or hot-path change can never
// silently shift the shipped findings. Small reports live as files in
// testdata/; the megabyte-scale artifacts (the 1000-machine cluster
// report, the drift decision trace and calibration stream) are pinned
// by SHA-256 instead.

// reportBytes renders a report exactly as `uaqp sim -o` writes it
// (stable indentation plus trailing newline), which is how the goldens
// were recorded.
func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func runShipped(t *testing.T, name string) *Report {
	t.Helper()
	sc, err := Load("../../examples/sim/" + name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func compareGolden(t *testing.T, got []byte, golden string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report differs from testdata/%s (%d vs %d bytes); the shipped scenario's bytes are pinned — "+
			"if the change is intentional, re-record the golden", golden, len(got), len(want))
	}
}

// TestV1ReportGolden is the compatibility gate: scenario.json has no
// "rng" key, so its report must be byte-identical to the golden of the
// historical v1 stream. If this fails, the v1 path is no longer that
// stream. The golden was recorded before the measurement-stream seam
// existed and re-pinned once since, when closed-form cost functions
// moved the predicted floats (calibration mape / bias / mean_z /
// pearson_r, by at most 2.1e-7 relative); the measurement stream, and
// every count and decision in the report, did not move.
func TestV1ReportGolden(t *testing.T) {
	rep := runShipped(t, "scenario.json")
	compareGolden(t, reportBytes(t, rep), "report-v1-bursty.json")
}

// TestV2ReportGoldens pins the migrated scenarios' freshly recorded v2
// reports.
func TestV2ReportGoldens(t *testing.T) {
	for scenario, golden := range map[string]string{
		"scenario-hetero.json":  "report-v2-hetero.json",
		"scenario-sharded.json": "report-v2-sharded.json",
		"scenario-drift.json":   "report-v2-drift.json",
	} {
		rep := runShipped(t, scenario)
		compareGolden(t, reportBytes(t, rep), golden)
	}
}

// Megabyte-scale goldens, pinned by hash: the 1000-machine cluster
// report and the drift scenario's decision trace and calibration
// stream (recorded at trace-level "decisions" with calibration
// streaming on, exactly as `uaqp sim -trace -calib` writes them).
// Re-pinned, with the v2 report files, when closed-form cost functions
// moved predicted means and sigmas by at most 5.1e-8 relative; every
// decision in the trace is unchanged.
const (
	clusterReportSHA256 = "81023b705f10021d483b38ceb739a94092d64f669f4af024ee35e20c18674148"
	driftTraceSHA256    = "512bafc0b826af9084e6adecee041581feec86a9dc997d954bdc639c714535c3"
	driftCalibSHA256    = "dd00fc9ef13fcd6a3b8ffdd4caa4bba9c76afe7e6972dcf6a94ce17588dc5cfd"
)

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestV2DriftStreamHashes pins the drift scenario's instrumented
// streams: report bytes must be unperturbed by instrumentation, and the
// decision trace and calibration stream must match their recorded
// hashes.
func TestV2DriftStreamHashes(t *testing.T) {
	sc, err := Load("../../examples/sim/scenario-drift.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, events, calibEvents, err := runInstrumented(sc, trace.Decisions, true)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, reportBytes(t, rep), "report-v2-drift.json")

	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	if got := sha256hex(buf.Bytes()); got != driftTraceSHA256 {
		t.Errorf("drift decision trace hash %s, want %s", got, driftTraceSHA256)
	}
	buf.Reset()
	if err := trace.WriteJSONL(&buf, calibEvents); err != nil {
		t.Fatal(err)
	}
	if got := sha256hex(buf.Bytes()); got != driftCalibSHA256 {
		t.Errorf("drift calibration stream hash %s, want %s", got, driftCalibSHA256)
	}
}

// TestV2ClusterReportHash pins the million-event cluster scenario's
// report. ~8 s of single-core virtual cluster; skipped under -short.
func TestV2ClusterReportHash(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster scenario is ~8s; skipped under -short")
	}
	rep := runShipped(t, "scenario-cluster.json")
	if got := sha256hex(reportBytes(t, rep)); got != clusterReportSHA256 {
		t.Errorf("cluster report hash %s, want %s", got, clusterReportSHA256)
	}
}

// TestShippedScenariosDeterministic is the end-to-end determinism gate
// over everything under examples/sim: each shipped scenario runs twice,
// the second time at GOMAXPROCS=2, and the report must not move a byte.
// The heterogeneous scenario is also held to a byte-identical
// full-level decision trace and the drift scenario to a byte-identical
// calibration stream — both streams are part of the contract. The
// 1000-machine cluster scenario (~12 s a run) is skipped under -short
// and under the race detector; TestV2ClusterReportHash pins its bytes.
func TestShippedScenariosDeterministic(t *testing.T) {
	for _, tc := range []struct {
		file  string
		level trace.Level
		calib bool
	}{
		{"scenario.json", trace.Off, false},
		{"scenario-hetero.json", trace.Full, false},
		{"scenario-cluster.json", trace.Off, false},
		{"scenario-sharded.json", trace.Off, false},
		{"scenario-drift.json", trace.Off, true},
	} {
		t.Run(tc.file, func(t *testing.T) {
			if tc.file == "scenario-cluster.json" && (testing.Short() || raceEnabled) {
				t.Skip("cluster scenario is ~12s a run")
			}
			sc, err := Load("../../examples/sim/" + tc.file)
			if err != nil {
				t.Fatal(err)
			}
			run := func() (report, events, calibEvents []byte) {
				rep, ev, cal, err := runInstrumented(sc, tc.level, tc.calib)
				if err != nil {
					t.Fatal(err)
				}
				return reportBytes(t, rep), traceJSONL(t, ev), traceJSONL(t, cal)
			}
			rep1, ev1, cal1 := run()
			prev := runtime.GOMAXPROCS(2)
			rep2, ev2, cal2 := run()
			runtime.GOMAXPROCS(prev)
			if !bytes.Equal(rep1, rep2) {
				t.Error("reports differ across identical runs")
			}
			if !bytes.Equal(ev1, ev2) {
				t.Error("decision traces differ across identical runs")
			}
			if !bytes.Equal(cal1, cal2) {
				t.Error("calibration streams differ across identical runs")
			}
			if (tc.level != trace.Off) != (len(ev1) > 0) || tc.calib != (len(cal1) > 0) {
				t.Errorf("recorded %d trace bytes at level %s and %d calibration bytes with calib=%v",
					len(ev1), tc.level, len(cal1), tc.calib)
			}
		})
	}
}
