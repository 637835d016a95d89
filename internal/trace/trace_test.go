package trace

import (
	"bytes"
	"reflect"
	"testing"
)

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"": Off, "off": Off, "decisions": Decisions, "full": Full,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
		if got.String() != "off" && got.String() != "decisions" && got.String() != "full" {
			t.Errorf("Level %v stringifies to %q", got, got.String())
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func TestBufferLevels(t *testing.T) {
	b := NewBuffer(Decisions)
	if b.Enabled(Off) {
		t.Error("Enabled(Off) true: Off-level events must never be constructed")
	}
	if !b.Enabled(Decisions) || b.Enabled(Full) {
		t.Errorf("Decisions buffer gates wrong: decisions=%v full=%v",
			b.Enabled(Decisions), b.Enabled(Full))
	}
	off := NewBuffer(Off)
	if off.Enabled(Decisions) || off.Enabled(Full) {
		t.Error("Off buffer records")
	}
}

func TestBufferSequencesAndCopies(t *testing.T) {
	b := NewBuffer(Full)
	ev := Event{Kind: KindAdmission, Tenant: "alpha", Verdict: "admit"}
	b.Record(&ev)
	ev.Tenant = "mutated" // caller reuse must not leak into the buffer
	b.Record(&ev)
	got := b.Events()
	if len(got) != 2 || got[0].Seq != 0 || got[1].Seq != 1 {
		t.Fatalf("sequence numbers wrong: %+v", got)
	}
	if got[0].Tenant != "alpha" || got[1].Tenant != "mutated" {
		t.Errorf("Record did not copy: %+v", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 0, Kind: KindPlacement, At: 0.5, Machine: 2, Tenant: "gold",
			Query: "gold/q1#00000", Router: "least-risk", TieBreak: "risk",
			Candidates: []Candidate{
				{Machine: 0, QueueLen: 1, WaitMean: 0.2, PredMean: 0.4, PredSigma: 0.1, PMeet: 0.7},
				{Machine: 1, WaitMean: 0, PredMean: 0.3, PredSigma: 0.05, PMeet: 0.97},
			}},
		{Seq: 1, Kind: KindAdmission, At: 0.5, Machine: 2, Tenant: "gold",
			ID: 7, Verdict: "admit", Deadline: 0.9, PredMean: 0.3, PMeet: 0.97, Threshold: 0.9},
		{Seq: 2, Kind: KindOutcome, At: 0.9, Machine: 2, Tenant: "gold",
			ID: 7, Start: 0.5, Finish: 0.9, Elapsed: 0.4, Met: true},
		{Seq: 3, Kind: KindRecalibration, At: 1.0, Machine: 2, Tenant: "gold",
			Advised: true, Recalibrated: true},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != len(events) {
		t.Errorf("JSONL has %d lines, want %d", n, len(events))
	}
	back, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, events) {
		t.Errorf("round trip mismatch:\n%+v\nvs\n%+v", back, events)
	}

	// Byte-determinism of the serialization itself.
	var buf2 bytes.Buffer
	if err := WriteJSONL(&buf2, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WriteJSONL is not byte-deterministic")
	}
}

func TestTallyByTenant(t *testing.T) {
	events := []Event{
		{Kind: KindAdmission, Tenant: "a", Verdict: "admit"},
		{Kind: KindAdmission, Tenant: "a", Verdict: "reject"},
		{Kind: KindAdmission, Tenant: "a", Verdict: "admit"},
		{Kind: KindAdmission, Tenant: "a", Machine: -1, Verdict: "shed-predictive", Reason: "front-door"},
		{Kind: KindOutcome, Tenant: "a", Met: true},
		{Kind: KindOutcome, Tenant: "a", Met: false},
		{Kind: KindAdmission, Tenant: "b", Verdict: "admit"},
		{Kind: KindOutcome, Tenant: "b", Met: true},
		{Kind: KindPlacement, Tenant: "b"}, // placements don't count
	}
	got := TallyByTenant(events)
	want := map[string]Tally{
		"a": {Submitted: 4, Admitted: 2, Rejected: 1, Shed: 1, Executed: 2, Met: 1},
		"b": {Submitted: 1, Admitted: 1, Executed: 1, Met: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TallyByTenant = %+v, want %+v", got, want)
	}
	if a := got["a"].Attainment(); a != 1.0/4.0 {
		t.Errorf("attainment = %v, want 1/4", a)
	}
	if (Tally{}).Attainment() != 0 {
		t.Error("empty tally attainment not 0")
	}
}
