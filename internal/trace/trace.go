// Package trace records the serving stack's decisions as structured
// events: every admission verdict with the distribution it was decided
// on, every placement with the full per-machine candidate scoring
// vector, every execution outcome, and every recalibration. The paper's
// pitch is that predicted *distributions* drive decisions; this package
// makes each such decision inspectable after the fact, and complete
// enough that a run's per-tenant outcome can be re-derived from the
// trace alone (TallyByTenant).
//
// The package depends only on the standard library, so every layer
// (serve, sim, cmd) can emit into it without import cycles.
//
// Emission is pull-gated: producers hold a Recorder and guard each
// event with Enabled(level), so a nil or switched-off recorder costs
// one branch (and zero allocations) per decision. Event streams are
// deterministic for a deterministic producer — the simulator emits
// from one serial event loop, so a Buffer numbers its events in event
// order regardless of GOMAXPROCS — and serialize as JSONL (one Event
// per line), byte-identical per (scenario, seed).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Level selects how much is recorded.
type Level int

const (
	// Off records nothing.
	Off Level = iota
	// Decisions records admissions and placements — everything needed
	// to diff two runs' policy decisions.
	Decisions
	// Full adds execution outcomes and recalibrations — everything
	// needed to reconstruct per-tenant SLO attainment from the trace
	// alone.
	Full
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Off:
		return "off"
	case Decisions:
		return "decisions"
	case Full:
		return "full"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// ParseLevel parses a level name; "" selects Off.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "", "off":
		return Off, nil
	case "decisions":
		return Decisions, nil
	case "full":
		return Full, nil
	}
	return Off, fmt.Errorf("trace: unknown level %q (want off, decisions, or full)", s)
}

// Kind distinguishes the event shapes sharing the flat Event struct.
type Kind string

const (
	// KindPlacement is a router picking a machine for an arrival; the
	// event carries the per-machine candidate scoring vector and the
	// tie-break reason. Recorded at Decisions.
	KindPlacement Kind = "placement"
	// KindAdmission is the admission controller's verdict on one
	// submitted request, with the predicted distribution, queue-wait
	// estimate, P(T_wait+T_q<=d), and the SLO threshold it was judged
	// against. Recorded at Decisions.
	KindAdmission Kind = "admission"
	// KindOutcome is one admitted request finishing (or failing)
	// execution. Recorded at Full.
	KindOutcome Kind = "outcome"
	// KindRecalibration is one tenant's units being recalibrated (or a
	// cadence check declining to). Recorded at Full.
	KindRecalibration Kind = "recalibration"
	// KindCalibration is one (predicted distribution, observed time)
	// pair from an executed request — the calibration observatory's raw
	// stream. Recorded only when calibration streaming is requested
	// (`uaqp sim -calib`, sim.WithCalibration), on a recorder of its own
	// — independent of the decision trace's level and numbering, so
	// enabling it never perturbs the decision stream's bytes.
	KindCalibration Kind = "calibration"
)

// Candidate is one machine's score in a placement decision, in machine
// order. Risk routers fill the prediction fields; load-only routers
// leave them zero.
type Candidate struct {
	Machine  int `json:"machine"`
	QueueLen int `json:"queue_len"`
	// WaitMean/WaitVar are the machine's predicted queue backlog at
	// decision time (T_wait).
	WaitMean float64 `json:"wait_mean"`
	WaitVar  float64 `json:"wait_var,omitempty"`
	// PredMean/PredSigma are the query's predicted running time on this
	// machine (per-machine units on labeled fleets); PMeet is
	// P(T_wait + T_q <= d).
	PredMean  float64 `json:"pred_mean,omitempty"`
	PredSigma float64 `json:"pred_sigma,omitempty"`
	PMeet     float64 `json:"p_meet,omitempty"`
}

// Event is one recorded decision. A single flat struct covers all
// kinds (fields irrelevant to a kind stay zero and are omitted from
// the JSON), so streams diff positionally without type dispatch.
type Event struct {
	// Seq is the event's position in the deterministic global order;
	// assigned by the collecting Recorder.
	Seq uint64 `json:"seq"`
	// Kind selects the shape; At is the virtual time of the decision.
	Kind Kind    `json:"kind"`
	At   float64 `json:"at"`
	// Machine is the deciding (placement: chosen) machine index; -1 on
	// front-door events, which are decided before any machine is.
	Machine int `json:"machine"`
	// Shard names the serving shard the decision belongs to on sharded
	// topologies; empty — and omitted — otherwise.
	Shard  string `json:"shard,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Query  string `json:"query,omitempty"`
	// ID is the server-assigned admission ID (admission/outcome).
	ID uint64 `json:"id,omitempty"`

	// Placement fields.
	Router     string      `json:"router,omitempty"`
	Candidates []Candidate `json:"candidates,omitempty"`
	// TieBreak names the comparison that selected the winner: "risk"
	// (higher P(meet)), "wait" (least expected wait among equally safe
	// machines), or "rotation" (round-robin).
	TieBreak string `json:"tie_break,omitempty"`

	// Admission fields. Verdict is "admit" or "reject"; Threshold is
	// the tenant's SLO confidence PMeet was judged against.
	Verdict        string  `json:"verdict,omitempty"`
	Reason         string  `json:"reason,omitempty"`
	Deadline       float64 `json:"deadline,omitempty"`
	PredMean       float64 `json:"pred_mean,omitempty"`
	PredSigma      float64 `json:"pred_sigma,omitempty"`
	QueueWaitMean  float64 `json:"queue_wait_mean,omitempty"`
	QueueWaitSigma float64 `json:"queue_wait_sigma,omitempty"`
	PMeet          float64 `json:"p_meet,omitempty"`
	Threshold      float64 `json:"threshold,omitempty"`
	QueueLen       int     `json:"queue_len,omitempty"`

	// Outcome fields.
	Start   float64 `json:"start,omitempty"`
	Finish  float64 `json:"finish,omitempty"`
	Elapsed float64 `json:"elapsed,omitempty"`
	Met     bool    `json:"met,omitempty"`

	// Recalibration fields. The Drift* fields snapshot the feedback
	// window the verdict was based on — the window recalibration resets,
	// preserved here so post-hoc analysis can see why a recal fired:
	// DriftObservations is the window's observation count, DriftUnit the
	// cost unit with the largest absolute coverage drift, and
	// MaxCoverageDrift that unit's worst signed drift (observed -
	// nominal coverage).
	Advised           bool    `json:"advised,omitempty"`
	Recalibrated      bool    `json:"recalibrated,omitempty"`
	DriftObservations int     `json:"drift_observations,omitempty"`
	DriftUnit         string  `json:"drift_unit,omitempty"`
	MaxCoverageDrift  float64 `json:"max_coverage_drift,omitempty"`

	// Calibration fields (KindCalibration reuses PredMean/PredSigma for
	// the predicted distribution and Elapsed for the observed time).
	// Unit is the cost unit dominating the predicted mean.
	Unit string `json:"unit,omitempty"`
}

// Recorder receives decision events. Producers MUST guard every
// emission with Enabled, so a disabled recorder never pays for event
// construction:
//
//	if rec != nil && rec.Enabled(trace.Decisions) {
//		rec.Record(&trace.Event{...})
//	}
//
// Record takes a pointer the recorder copies from; the caller keeps
// ownership and may reuse the value. Implementations used by
// concurrent producers (a live HTTP server) must be safe for
// concurrent use; the simulator calls its recorders from one goroutine,
// in event order.
type Recorder interface {
	Enabled(Level) bool
	Record(*Event)
}

// Buffer is a mutex-guarded in-memory Recorder: it stamps sequence
// numbers in arrival order and accumulates copies of the events. Safe
// for concurrent use.
type Buffer struct {
	level Level

	mu     sync.Mutex
	events []Event
}

// NewBuffer returns a Buffer recording events up to level.
func NewBuffer(level Level) *Buffer { return &Buffer{level: level} }

// Enabled reports whether events at l are recorded.
func (b *Buffer) Enabled(l Level) bool { return l > Off && l <= b.level }

// Record appends a copy of ev, assigning the next sequence number.
func (b *Buffer) Record(ev *Event) {
	b.mu.Lock()
	e := *ev
	e.Seq = uint64(len(b.events))
	b.events = append(b.events, e)
	b.mu.Unlock()
}

// Events returns a snapshot copy of the recorded events.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// WriteJSONL writes events one JSON object per line — the
// deterministic interchange format (`uaqp sim -trace`): Go's JSON
// encoding of a fixed event sequence is byte-stable, so same scenario
// + seed produces byte-identical files.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("trace: encode event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL decodes a JSONL stream written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	dec := json.NewDecoder(r)
	for dec.More() {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("trace: decode event %d: %w", len(events), err)
		}
		events = append(events, ev)
	}
	return events, nil
}

// Tally aggregates one tenant's decision events. Submitted = Admitted +
// Rejected + Shed: Rejected counts a server's admission refusals, Shed
// the front door's (decided before any machine is, so never queued).
type Tally struct {
	Submitted int `json:"submitted"`
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Shed      int `json:"shed"`
	Executed  int `json:"executed"`
	Met       int `json:"met"`
}

// Attainment is deadlines met over submitted — the same end-to-end
// goodput definition the simulator's Report uses, reconstructed from
// the trace alone (requires a Full-level trace for the Met counts).
func (t Tally) Attainment() float64 {
	if t.Submitted == 0 {
		return 0
	}
	return float64(t.Met) / float64(t.Submitted)
}

// TallyByTenant reconstructs per-tenant admission/outcome counts from
// an event stream.
func TallyByTenant(events []Event) map[string]Tally {
	out := make(map[string]Tally)
	for i := range events {
		ev := &events[i]
		t := out[ev.Tenant]
		switch ev.Kind {
		case KindAdmission:
			t.Submitted++
			switch {
			case ev.Machine < 0:
				// A front-door event (see Event.Machine): the front door
				// records only its refusals; what it lets through gets its
				// admission verdict from a machine.
				t.Shed++
			case ev.Verdict == "admit":
				t.Admitted++
			default:
				t.Rejected++
			}
		case KindOutcome:
			t.Executed++
			if ev.Met {
				t.Met++
			}
		default:
			continue
		}
		out[ev.Tenant] = t
	}
	return out
}
