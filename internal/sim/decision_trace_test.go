package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
)

// traceJSONL renders an event stream the way `uaqp sim -trace` does.
func traceJSONL(t *testing.T, events []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runRecorded runs sc with a fresh trace.Buffer at level as its decision
// trace sink and returns what it recorded.
func runRecorded(sc Scenario, level trace.Level) (*Report, []trace.Event, error) {
	buf := trace.NewBuffer(level)
	rep, err := Run(sc, WithTrace(buf))
	return rep, buf.Events(), err
}

// runInstrumented is runRecorded with, when calib is set, a second fresh
// trace.Buffer as the calibration-stream sink; it returns what each
// recorded.
func runInstrumented(sc Scenario, level trace.Level, calib bool) (*Report, []trace.Event, []trace.Event, error) {
	tr, cal := trace.NewBuffer(level), trace.NewBuffer(trace.Full)
	opts := []RunOption{WithTrace(tr)}
	if calib {
		opts = append(opts, WithCalibration(cal))
	}
	rep, err := Run(sc, opts...)
	return rep, tr.Events(), cal.Events(), err
}

// TestTraceByteIdentical extends the determinism contract
// (TestSimDeterministic) to the decision trace: the JSONL stream is
// byte-identical across repeated runs and every GOMAXPROCS.
func TestTraceByteIdentical(t *testing.T) {
	_, refEvents, err := runRecorded(testScenario(), trace.Full)
	if err != nil {
		t.Fatal(err)
	}
	if len(refEvents) == 0 {
		t.Fatal("reference run recorded no events")
	}
	ref := traceJSONL(t, refEvents)

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		_, events, err := runRecorded(testScenario(), trace.Full)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if got := traceJSONL(t, events); !bytes.Equal(got, ref) {
			t.Errorf("GOMAXPROCS=%d: trace differs from the reference run", procs)
		}
	}
}

// TestRunTracedMatchesRun pins that observation is pure: installing a
// recorder (even at Full) must not change a single byte of the report.
func TestRunTracedMatchesRun(t *testing.T) {
	plain, err := Run(testScenario())
	if err != nil {
		t.Fatal(err)
	}
	traced, _, err := runRecorded(testScenario(), trace.Full)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	tj, err := traced.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, tj) {
		t.Error("tracing changed the report")
	}
}

// TestTraceDecisionContent pins what each event kind carries: every
// placement the full per-machine candidate scoring vector and a
// tie-break reason, every admission the distribution it was judged on,
// and (at Full) outcomes and sequence numbers in deterministic order.
func TestTraceDecisionContent(t *testing.T) {
	sc := testScenario()
	rep, events, err := runRecorded(sc, trace.Full)
	if err != nil {
		t.Fatal(err)
	}
	machines := sc.Machines.Size()
	var placements, admissions, outcomes int
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d, want dense ascending", i, ev.Seq)
		}
		switch ev.Kind {
		case trace.KindPlacement:
			placements++
			if len(ev.Candidates) != machines {
				t.Fatalf("placement %d has %d candidates, want %d", i, len(ev.Candidates), machines)
			}
			if ev.TieBreak != "risk" && ev.TieBreak != "wait" {
				t.Fatalf("placement %d tie_break %q", i, ev.TieBreak)
			}
			if ev.Router != RouterLeastRisk {
				t.Fatalf("placement %d router %q", i, ev.Router)
			}
			c := ev.Candidates[ev.Machine]
			if c.Machine != ev.Machine || c.PredMean <= 0 || c.PredSigma <= 0 {
				t.Fatalf("placement %d chose machine %d with empty scoring: %+v", i, ev.Machine, c)
			}
		case trace.KindAdmission:
			admissions++
			if ev.Verdict != "admit" && ev.Verdict != "reject" {
				t.Fatalf("admission %d verdict %q", i, ev.Verdict)
			}
			if ev.Threshold <= 0 || ev.Deadline <= 0 || ev.Tenant == "" {
				t.Fatalf("admission %d missing fields: %+v", i, ev)
			}
			if ev.Verdict == "admit" && (ev.PredMean <= 0 || ev.PMeet < ev.Threshold) {
				t.Fatalf("admitted event %d inconsistent with its own numbers: %+v", i, ev)
			}
		case trace.KindOutcome:
			outcomes++
			if ev.Finish < ev.Start || ev.Elapsed <= 0 {
				t.Fatalf("outcome %d times: %+v", i, ev)
			}
		}
	}
	if placements != rep.Arrivals {
		t.Errorf("placements = %d, want one per arrival (%d)", placements, rep.Arrivals)
	}
	if admissions != rep.Arrivals {
		t.Errorf("admissions = %d, want one per arrival (%d)", admissions, rep.Arrivals)
	}
	var executed int
	for _, tr := range rep.Tenants {
		executed += tr.Executed + tr.ExecFailed
	}
	if outcomes != executed {
		t.Errorf("outcomes = %d, want one per executed query (%d)", outcomes, executed)
	}

	// Decisions level drops outcomes but keeps both decision kinds.
	_, dec, err := runRecorded(sc, trace.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range dec {
		if ev.Kind == trace.KindOutcome || ev.Kind == trace.KindRecalibration {
			t.Fatalf("decisions-level trace carries %s events", ev.Kind)
		}
	}
	if len(dec) != placements+admissions {
		t.Errorf("decisions-level trace has %d events, want %d", len(dec), placements+admissions)
	}
}

// TestTraceLevelFromScenario pins what Run does with the trace_level
// scenario key: it validates it, and the level actually recorded is the
// WithTrace recorder's (the key is `uaqp sim -trace`'s default).
func TestTraceLevelFromScenario(t *testing.T) {
	sc := testScenario()
	sc.TraceLevel = "full"
	_, events, err := runRecorded(sc, trace.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("decisions-level recorder recorded nothing")
	}
	for _, ev := range events {
		if ev.Kind == trace.KindOutcome {
			t.Fatal("decisions-level recorder received an outcome event")
		}
	}
	sc.TraceLevel = "invalid"
	if _, err := Run(sc); err == nil {
		t.Fatal("invalid trace_level accepted")
	}
}

// TestTraceTallyMatchesReport pins that a Full-level trace carries the
// outcome: for every shipped scenario, the per-tenant tallies
// reconstructed from the trace alone — members of a Count group summed
// under the group's report row — equal the report on submitted,
// admitted, rejected, shed and deadlines met, and so on attainment,
// exactly. Front-door refusals are sheds, not rejections: the sharded
// scenario sheds about half of its arrivals and rejects none. (That
// least-risk out-attains least-queue on the heterogeneous scenario is
// TestHeterogeneousLeastRiskAdvantage's.)
func TestTraceTallyMatchesReport(t *testing.T) {
	for _, file := range []string{
		"scenario.json", "scenario-hetero.json", "scenario-drift.json",
		"scenario-sharded.json", "scenario-cluster.json",
	} {
		t.Run(file, func(t *testing.T) {
			if file == "scenario-cluster.json" && (testing.Short() || raceEnabled) {
				t.Skip("cluster scenario is ~12s a run")
			}
			sc, err := Load("../../examples/sim/" + file)
			if err != nil {
				t.Fatal(err)
			}
			rep, events, err := runRecorded(sc, trace.Full)
			if err != nil {
				t.Fatal(err)
			}
			groups := make(map[string]trace.Tally, len(rep.Tenants))
			for _, tr := range rep.Tenants {
				groups[tr.Name] = trace.Tally{}
			}
			for name, tal := range trace.TallyByTenant(events) {
				if _, ok := groups[name]; !ok {
					// A Count-group member, "group/0007".
					name = name[:strings.LastIndexByte(name, '/')]
				}
				g := groups[name]
				g.Submitted += tal.Submitted
				g.Admitted += tal.Admitted
				g.Rejected += tal.Rejected
				g.Shed += tal.Shed
				g.Executed += tal.Executed
				g.Met += tal.Met
				groups[name] = g
			}
			var shed int
			for _, tr := range rep.Tenants {
				tal := groups[tr.Name]
				if tal.Submitted != tr.Submitted || tal.Admitted != tr.Admitted ||
					tal.Rejected != tr.Rejected || tal.Shed != tr.Shed || tal.Met != tr.DeadlinesMet {
					t.Errorf("tenant %q: trace tally %+v vs report %+v", tr.Name, tal, tr)
				}
				if tal.Attainment() != tr.SLOAttainment {
					t.Errorf("tenant %q: trace attainment %v, report %v", tr.Name, tal.Attainment(), tr.SLOAttainment)
				}
				shed += tal.Shed
			}
			if sc.Shards != nil && sc.Shards.FrontDoor != nil && shed == 0 {
				t.Error("a front-door scenario shed nothing: the Shed column is untested")
			}
		})
	}
}

// TestTraceJSONLRoundTripFile pins the CLI interchange: events written
// as JSONL read back equal, through a real file.
func TestTraceJSONLRoundTripFile(t *testing.T) {
	_, events, err := runRecorded(testScenario(), trace.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(f, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	back, err := trace.ReadJSONL(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip lost events: %d vs %d", len(back), len(events))
	}
	if !reflect.DeepEqual(back, events) {
		t.Error("round trip changed event contents")
	}
}

// TestTraceOffAllocs pins the zero-alloc-when-disabled contract: a run
// with a recorder installed but switched Off must cost, amortized per
// event, essentially nothing over the nil-recorder path — every
// emission site guards with Enabled before constructing an Event. Both
// seams are held to the budget: runOn over a warm System, and the
// exported Run(sc, WithTrace(off)) against plain Run(sc).
func TestTraceOffAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	rs, sys, cache := openScenario(t, testScenario())
	warm, err := runOn(rs, sys, cache, runSinks{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Events == 0 {
		t.Fatal("warm run processed no events")
	}
	off := trace.NewBuffer(trace.Off)
	for _, seam := range []struct {
		name       string
		plain, off func() (*Report, error)
	}{
		{"runOn",
			func() (*Report, error) { return runOn(rs, sys, cache, runSinks{}) },
			func() (*Report, error) { return runOn(rs, sys, cache, runSinks{trace: off}) }},
		{"Run",
			func() (*Report, error) { return Run(rs.Scenario) },
			func() (*Report, error) { return Run(rs.Scenario, WithTrace(off)) }},
	} {
		allocs := func(run func() (*Report, error)) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		baseline, disabled := allocs(seam.plain), allocs(seam.off)
		// The installed-but-off path may allocate the per-machine recorder
		// shells (a handful per run), never per event.
		extraPerEvent := (disabled - baseline) / float64(warm.Events)
		if extraPerEvent > 1 {
			t.Errorf("%s: disabled tracing adds %.2f allocs/event (baseline %.0f, off %.0f over %d events), want ~0",
				seam.name, extraPerEvent, baseline, disabled, warm.Events)
		}
		t.Logf("%s: tracing off: %+.3f allocs/event over the nil-recorder path", seam.name, extraPerEvent)
	}
}
