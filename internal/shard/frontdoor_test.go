package shard

import (
	"fmt"
	"testing"
)

// TestFrontDoorTokenBucket pins the throttle mechanics: a burst drains
// the bucket, refill is proportional to elapsed virtual time, and the
// bucket never exceeds its burst capacity.
func TestFrontDoorTokenBucket(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{Rate: 2, Burst: 3})
	for i := 0; i < 3; i++ {
		if v := fd.Admit("gold", 0, 1, 0.5); v != VerdictAdmit {
			t.Fatalf("request %d within burst: %s", i, v)
		}
	}
	if v := fd.Admit("gold", 0, 1, 0.5); v != VerdictShedThrottle {
		t.Fatalf("burst exhausted but verdict %s", v)
	}
	// 1 second at rate 2 refills 2 tokens.
	if v := fd.Admit("gold", 1, 1, 0.5); v != VerdictAdmit {
		t.Fatalf("after refill: %s", v)
	}
	if v := fd.Admit("gold", 1, 1, 0.5); v != VerdictAdmit {
		t.Fatalf("second refilled token: %s", v)
	}
	if v := fd.Admit("gold", 1, 1, 0.5); v != VerdictShedThrottle {
		t.Fatalf("refill over-credited: %s", v)
	}
	// A long idle stretch caps at burst, not rate×dt.
	for i := 0; i < 3; i++ {
		if v := fd.Admit("gold", 100, 1, 0.5); v != VerdictAdmit {
			t.Fatalf("request %d after idle: %s", i, v)
		}
	}
	if v := fd.Admit("gold", 100, 1, 0.5); v != VerdictShedThrottle {
		t.Fatalf("idle refill exceeded burst: %s", v)
	}

	c := fd.Counters()[0]
	if c.Class != "gold" || c.Admitted != 8 || c.ShedThrottled != 3 || c.ShedPredictive != 0 {
		t.Fatalf("counters %+v, want 8 admitted / 3 throttled / 0 predictive", c)
	}
}

// TestFrontDoorSubUnitRate pins the default burst under a rate below
// one request per second: the bucket must still hold a whole token, so
// requests spaced farther apart than 1/Rate are all admitted, and
// closer ones at Rate per second.
func TestFrontDoorSubUnitRate(t *testing.T) {
	sparse := NewFrontDoor(FrontDoorConfig{Rate: 0.5})
	for i := 0; i < 100; i++ {
		if v := sparse.Admit("gold", float64(10*i), 1, 0.5); v != VerdictAdmit {
			t.Fatalf("request %d at t=%ds, rate 0.5/s: %s", i, 10*i, v)
		}
	}
	dense := NewFrontDoor(FrontDoorConfig{Rate: 0.5, Burst: 0.25})
	admitted := 0
	for i := 0; i < 10; i++ {
		if dense.Admit("gold", float64(i), 1, 0.5) == VerdictAdmit {
			admitted++
		}
	}
	// The full bucket at t=0, then one token every 2 s: t = 0, 2, 4, 6, 8.
	if admitted != 5 {
		t.Errorf("one request a second at rate 0.5/s: %d of 10 admitted, want 5", admitted)
	}
}

// TestFrontDoorPredictiveBeforeTokens pins the check order that makes
// predictive shedding pay off: a hopeless request is shed without
// spending a token, so the token it would have burned still admits a
// feasible one.
func TestFrontDoorPredictiveBeforeTokens(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{Rate: 1, Burst: 1, Predictive: true})
	// Hopeless: bestP far below confidence. Must not consume the token.
	if v := fd.Admit("storm", 0, 0.01, 0.9); v != VerdictShedPredictive {
		t.Fatalf("hopeless request verdict %s", v)
	}
	// The single token is still there for the feasible request.
	if v := fd.Admit("gold", 0, 0.99, 0.9); v != VerdictAdmit {
		t.Fatalf("feasible request after predictive shed: %s", v)
	}
	if v := fd.Admit("gold", 0, 0.99, 0.9); v != VerdictShedThrottle {
		t.Fatalf("token double-spent: %s", v)
	}

	// The same sequence with predictive off: the hopeless request
	// takes the token and the feasible one is throttled — the naive
	// baseline the pinned sim test measures against.
	naive := NewFrontDoor(FrontDoorConfig{Rate: 1, Burst: 1})
	if v := naive.Admit("storm", 0, 0.01, 0.9); v != VerdictAdmit {
		t.Fatalf("naive front door shed unexpectedly: %s", v)
	}
	if v := naive.Admit("gold", 0, 0.99, 0.9); v != VerdictShedThrottle {
		t.Fatalf("naive front door had a spare token: %s", v)
	}

	if got := fd.Counters(); len(got) != 2 || got[0].Class != "gold" || got[1].Class != "storm" {
		t.Fatalf("counters %+v, want classes [gold storm]", got)
	}
}

// TestFrontDoorUnlimited pins that Rate <= 0 disables the throttle but
// leaves the predictive check live.
func TestFrontDoorUnlimited(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{Predictive: true})
	for i := 0; i < 100; i++ {
		if v := fd.Admit("c", 0, 1, 0.5); v != VerdictAdmit {
			t.Fatalf("unlimited front door shed request %d: %s", i, v)
		}
	}
	if v := fd.Admit("c", 0, 0.1, 0.5); v != VerdictShedPredictive {
		t.Fatalf("predictive check inactive without a rate: %s", v)
	}
}

// TestFrontDoorRefund pins what refund undoes: the reserved token comes
// back, but never past Burst, and the admission is recounted as a
// predictive shed or, for any other verdict, not tallied at all.
func TestFrontDoorRefund(t *testing.T) {
	fd := NewFrontDoor(FrontDoorConfig{Rate: 1, Burst: 2, Predictive: true})
	for _, class := range []string{"shed", "gone"} {
		if v := fd.Admit(class, 0, 1, 0.5); v != VerdictAdmit {
			t.Fatalf("%s: reservation %s", class, v)
		}
	}
	// The refill at t=100 fills the bucket while both reservations are out.
	if v := fd.Admit("storm", 100, 0.1, 0.5); v != VerdictShedPredictive {
		t.Fatalf("hopeless request: %s", v)
	}
	fd.refund("shed", VerdictShedPredictive)
	fd.refund("gone", "")
	for i := 0; i < 2; i++ {
		if v := fd.Admit("gold", 100, 1, 0.5); v != VerdictAdmit {
			t.Fatalf("request %d within burst: %s", i, v)
		}
	}
	if v := fd.Admit("gold", 100, 1, 0.5); v != VerdictShedThrottle {
		t.Fatalf("refunds overfilled the bucket: %s", v)
	}
	want := []ClassCounters{
		{Class: "gold", Admitted: 2, ShedThrottled: 1},
		{Class: "gone"},
		{Class: "shed", ShedPredictive: 1},
		{Class: "storm", ShedPredictive: 1},
	}
	if got := fd.Counters(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("counters %+v, want %+v", got, want)
	}
}
