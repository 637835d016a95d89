package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// These tests hold every scenario under examples/sim, found by glob, to
// three properties: its report is pinned, two runs agree byte for byte
// on the report and both event streams, and the Full-level trace
// tallies to the report. All three read one fixture, which runs each
// scenario with a Full-level decision trace and a calibration stream
// attached, then again the same way at GOMAXPROCS=2.
//
// The cluster scenario (a million arrivals on a thousand machines)
// takes about 9 s a fixture run without the race detector and about a
// minute with it; the other four take tenths of a second. The event
// loop is serial, so the race detector finds nothing in the cluster the
// small scenarios do not exercise: the fixture skips the cluster under
// -race and -short, and CI runs its checks in a step of their own
// without the race detector.

// shippedDir holds the shipped scenarios: every *.json file in it.
const shippedDir = "../../examples/sim/"

// clusterScenario names the one shipped scenario the fixture skips
// under -race and -short.
const clusterScenario = "scenario-cluster.json"

// shippedFiles lists the shipped scenarios' file names.
func shippedFiles(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(shippedDir + "*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenarios under %s: %v", shippedDir, err)
	}
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return paths
}

// loadShipped loads one shipped scenario, for tests that vary it.
func loadShipped(t *testing.T, file string) Scenario {
	t.Helper()
	sc, err := Load(shippedDir + file)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// shippedRun is the fixture's record of one shipped scenario: the
// first run's report, and what each of the two runs wrote.
type shippedRun struct {
	once sync.Once
	err  error
	sc   Scenario
	rep  *Report
	// runs[1] is the rerun at GOMAXPROCS=2.
	runs [2]struct {
		report       []byte
		trace, calib *streamDigest
	}
}

var shippedRuns sync.Map // file name -> *shippedRun

// shipped returns the fixture's runs of one shipped scenario, running
// them on first use.
func shipped(t *testing.T, file string) *shippedRun {
	t.Helper()
	if file == clusterScenario && (testing.Short() || raceEnabled) {
		t.Skip("the cluster scenario runs only without -race and -short")
	}
	v, _ := shippedRuns.LoadOrStore(file, new(shippedRun))
	r := v.(*shippedRun)
	r.once.Do(func() { r.err = r.run(file) })
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r
}

func (r *shippedRun) run(file string) error {
	var err error
	if r.sc, err = Load(shippedDir + file); err != nil {
		return err
	}
	for i := range r.runs {
		if i == 1 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		}
		tr, cal := newStreamDigest(trace.Full), newStreamDigest(trace.Full)
		rep, err := Run(r.sc, WithTrace(tr), WithCalibration(cal))
		out := &r.runs[i]
		out.trace, out.calib = tr.close(), cal.close()
		if err != nil {
			return err
		}
		if out.report, err = rep.JSON(); err != nil {
			return err
		}
		out.report = append(out.report, '\n')
		if i == 0 {
			r.rep = rep
		}
	}
	return nil
}

// streamDigest is a trace.Recorder that keeps no events: it numbers
// them as trace.Buffer does and hands them, a chunk at a time, to a
// goroutine that folds them into the SHA-256 of their JSONL (as `uaqp
// sim -trace` or `-calib` writes it) and into per-tenant tallies. The
// cluster scenario's Full-level trace runs to three million events: too
// many to hold, and slower to encode than to simulate, so the encoding
// runs beside the event loop rather than on it.
type streamDigest struct {
	level  trace.Level
	n      int
	chunk  []trace.Event
	chunks chan []trace.Event
	done   chan struct{}
	// Set once close returns.
	sum   string
	tally map[string]trace.Tally
}

const digestChunk = 4096

func newStreamDigest(level trace.Level) *streamDigest {
	d := &streamDigest{
		level: level, chunk: make([]trace.Event, 0, digestChunk),
		chunks: make(chan []trace.Event, 1), done: make(chan struct{}),
		tally: make(map[string]trace.Tally),
	}
	go func() {
		h := sha256.New()
		for chunk := range d.chunks {
			if err := trace.WriteJSONL(h, chunk); err != nil {
				panic(err) // a hash.Hash never fails a write
			}
			for name, tal := range trace.TallyByTenant(chunk) {
				d.tally[name] = addTally(d.tally[name], tal)
			}
		}
		d.sum = hex.EncodeToString(h.Sum(nil))
		close(d.done)
	}()
	return d
}

func (d *streamDigest) Enabled(l trace.Level) bool { return l > trace.Off && l <= d.level }

func (d *streamDigest) Record(ev *trace.Event) {
	e := *ev
	e.Seq = uint64(d.n)
	d.n++
	if d.chunk = append(d.chunk, e); len(d.chunk) == digestChunk {
		d.chunks <- d.chunk
		d.chunk = make([]trace.Event, 0, digestChunk)
	}
}

// close hands over the last chunk and waits for the digest. The run
// recording into d must be over.
func (d *streamDigest) close() *streamDigest {
	d.chunks <- d.chunk
	close(d.chunks)
	<-d.done
	return d
}

func addTally(a, b trace.Tally) trace.Tally {
	a.Submitted += b.Submitted
	a.Admitted += b.Admitted
	a.Rejected += b.Rejected
	a.Shed += b.Shed
	a.Executed += b.Executed
	a.Met += b.Met
	return a
}

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

// shippedPins pins each shipped scenario's report: small reports to a
// golden under testdata/, the megabyte-scale cluster report by SHA-256,
// so a generator or hot-path change cannot silently shift the shipped
// findings.
var shippedPins = map[string]struct{ golden, sha256 string }{
	"scenario.json":         {golden: "report-v2-bursty.json"},
	"scenario-hetero.json":  {golden: "report-v2-hetero.json"},
	"scenario-sharded.json": {golden: "report-v2-sharded.json"},
	"scenario-drift.json":   {golden: "report-v2-drift.json"},
	"scenario-cluster.json": {sha256: clusterReportSHA256},
}

// Megabyte-scale goldens, pinned by hash: the 1000-machine cluster
// report and the drift scenario's decision trace and calibration
// stream (recorded at trace-level "decisions" with calibration
// streaming on, exactly as `uaqp sim -trace -calib` writes them).
// The cluster hash and the v2 report files were re-pinned, with both
// stream hashes unchanged, when the pre-loop warm-up pass went and
// every machine's report began carrying its profile label: only the
// cache counters, the fitness cache economy and score, the cache tier's
// lookup counts and the added labels moved. No scenario was re-seeded.
const (
	clusterReportSHA256 = "a5d0eeed81898573b4b8f0cca26b5f7ebe0d8591819ade89caf1341276567279"
	driftTraceSHA256    = "f5b80461aba0401c9921d315b4a9beeb1411b16a002350231fbf604029096908"
	driftCalibSHA256    = "a82844054e6a0fb8350654072c0066f9798bc715f7e551273064e35d0cd10a3e"
)

// TestShippedReportsPinned holds every shipped scenario's report to its
// pin, and fails for a scenario that has none (or a pin whose scenario
// is gone), so no scenario ships unpinned.
func TestShippedReportsPinned(t *testing.T) {
	files := shippedFiles(t)
	for pinned := range shippedPins {
		if !slices.Contains(files, pinned) {
			t.Errorf("pin for %s, which is not under %s", pinned, shippedDir)
		}
	}
	for _, file := range files {
		t.Run(file, func(t *testing.T) {
			pin, ok := shippedPins[file]
			if !ok {
				t.Fatal("no testdata/ golden and no SHA-256 pin: add one to shippedPins")
			}
			got := shipped(t, file).runs[0].report
			if pin.golden != "" {
				compareGolden(t, got, pin.golden)
			}
			if pin.sha256 != "" {
				if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != pin.sha256 {
					t.Errorf("report hash %x, want %s", sum, pin.sha256)
				}
			}
		})
	}
}

// TestV2DriftStreamHashes pins the drift scenario's instrumented
// streams: the report must be unperturbed by a Decisions-level trace,
// and the decision trace and calibration stream must match their
// recorded hashes. The Decisions-level trace takes a run of its own;
// the calibration stream is numbered apart from the decision trace, so
// the fixture's stream is the one pinned.
func TestV2DriftStreamHashes(t *testing.T) {
	const file = "scenario-drift.json"
	fix := shipped(t, file)
	dec := newStreamDigest(trace.Decisions)
	rep, err := Run(fix.sc, WithTrace(dec))
	dec.close()
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, reportBytes(t, rep), shippedPins[file].golden)
	if got := dec.sum; got != driftTraceSHA256 {
		t.Errorf("drift decision trace hash %s, want %s", got, driftTraceSHA256)
	}
	if got := fix.runs[0].calib.sum; got != driftCalibSHA256 {
		t.Errorf("drift calibration stream hash %s, want %s", got, driftCalibSHA256)
	}
}

// TestShippedScenariosDeterministic is the end-to-end determinism gate
// over everything under examples/sim: the fixture's two runs of each
// scenario, the second at GOMAXPROCS=2, must agree byte for byte on the
// report, the Full-level decision trace and the calibration stream —
// both streams are part of the contract.
func TestShippedScenariosDeterministic(t *testing.T) {
	for _, file := range shippedFiles(t) {
		t.Run(file, func(t *testing.T) {
			runs := shipped(t, file).runs
			a, b := runs[0], runs[1]
			if !bytes.Equal(a.report, b.report) {
				t.Error("reports differ across identical runs")
			}
			if a.trace.sum != b.trace.sum {
				t.Error("decision traces differ across identical runs")
			}
			if a.calib.sum != b.calib.sum {
				t.Error("calibration streams differ across identical runs")
			}
			if a.trace.n == 0 || a.calib.n == 0 {
				t.Errorf("recorded %d trace events and %d calibration events", a.trace.n, a.calib.n)
			}
		})
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
	for _, file := range shippedFiles(t) {
		t.Run(file, func(t *testing.T) {
			fix := shipped(t, file)
			groups := make(map[string]trace.Tally, len(fix.rep.Tenants))
			for _, tr := range fix.rep.Tenants {
				groups[tr.Name] = trace.Tally{}
			}
			for name, tal := range fix.runs[0].trace.tally {
				if _, ok := groups[name]; !ok {
					// A Count-group member, "group/0007".
					name = name[:strings.LastIndexByte(name, '/')]
				}
				groups[name] = addTally(groups[name], tal)
			}
			var shed int
			for _, tr := range fix.rep.Tenants {
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
			if sc := fix.sc; sc.Shards != nil && sc.Shards.FrontDoor != nil && shed == 0 {
				t.Error("a front-door scenario shed nothing: the Shed column is untested")
			}
		})
	}
}

// coverageTolerance is how far a shipped scenario's overall observed
// interval coverage may sit from nominal.
const coverageTolerance = 0.05

// coverageExceptions names the cells allowed past coverageTolerance,
// each with its own bound. The cluster's 50 % interval covers about
// 0.561 of one-run executions: the predictor is under-confident on
// uniform data, a finding not yet attributed to a layer.
var coverageExceptions = map[string]map[float64]float64{
	"scenario-cluster.json": {0.5: 0.07},
}

// TestShippedCoverageNearNominal holds every shipped scenario's overall
// calibration coverage within coverageTolerance of nominal at each
// level. The predicted distribution describes one execution; an
// execution that observed the paper's five-run mean instead covered the
// cluster's intervals at 0.877 / 0.9997 / 1.000, and this test fails on
// that.
func TestShippedCoverageNearNominal(t *testing.T) {
	for _, file := range shippedFiles(t) {
		t.Run(file, func(t *testing.T) {
			cal := shipped(t, file).rep.Calibration
			if cal == nil || cal.Overall.N == 0 {
				t.Fatal("no calibration observations")
			}
			for _, c := range cal.Overall.Coverage {
				tol, ok := coverageExceptions[file][c.Nominal]
				if !ok {
					tol = coverageTolerance
				}
				if math.Abs(c.Observed-c.Nominal) > tol {
					t.Errorf("nominal %v: observed coverage %.4f, more than %v off", c.Nominal, c.Observed, tol)
				}
			}
		})
	}
}
