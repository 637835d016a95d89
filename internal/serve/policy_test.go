package serve

import (
	"context"
	"testing"
	"time"

	uaqetp "repro"
)

// submitAll admits qs (with a roomy deadline so every one is accepted)
// and returns the decisions.
func submitAll(t *testing.T, srv *Server, qs []*uaqetp.Query, deadline float64) []Decision {
	t.Helper()
	out := make([]Decision, 0, len(qs))
	for _, q := range qs {
		d, err := srv.Submit(context.Background(), Request{Tenant: "alpha", Query: q, Deadline: deadline})
		if err != nil {
			t.Fatal(err)
		}
		if !d.Admitted {
			t.Fatalf("submission %q rejected: %s", q.Name, d.explain())
		}
		out = append(out, d)
	}
	return out
}

// TestQueuePolicyOrdersDrain pins the policy hook: FIFO drains in
// admission order, SJF drains shortest-predicted-first, and both drain
// the same set the default risk-slack policy does.
func TestQueuePolicyOrdersDrain(t *testing.T) {
	drainOrder := func(p QueuePolicy) (ids []uint64, preds []float64) {
		srv, qs := newTestServer(t, Config{Policy: p})
		submitAll(t, srv, qs, 100)
		outs, err := srv.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != len(qs) {
			t.Fatalf("%s: drained %d of %d", p.Name, len(outs), len(qs))
		}
		for _, o := range outs {
			ids = append(ids, o.ID)
			preds = append(preds, o.PredMean)
		}
		return ids, preds
	}

	ids, _ := drainOrder(FIFO)
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("FIFO drained out of admission order: %v", ids)
		}
	}
	_, preds := drainOrder(SJF)
	for i := 1; i < len(preds); i++ {
		if preds[i] < preds[i-1] {
			t.Fatalf("SJF drained a longer prediction first: %v", preds)
		}
	}
}

// TestQueuePolicyByName resolves every built-in policy and rejects
// unknown names.
func TestQueuePolicyByName(t *testing.T) {
	for _, name := range []string{"", "risk-slack", "edf", "sjf", "fifo"} {
		p, err := QueuePolicyByName(name)
		if err != nil || p.Key == nil {
			t.Errorf("policy %q: %v (key nil: %v)", name, err, p.Key == nil)
		}
	}
	if _, err := QueuePolicyByName("lifo"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestStepOneHoldsClock pins the simulator's stepping contract:
// StepOneInto executes at the current clock without advancing it,
// AdvanceClock is monotonic, and the admission rule sees the in-flight
// request's residual service as queue wait.
func TestStepOneHoldsClock(t *testing.T) {
	srv, qs := newTestServer(t, Config{})
	submitAll(t, srv, qs[:2], 100)

	srv.AdvanceClock(5)
	if c := srv.Clock(); c != 5 {
		t.Fatalf("clock = %v after AdvanceClock(5)", c)
	}
	srv.AdvanceClock(3) // never backward
	if c := srv.Clock(); c != 5 {
		t.Fatalf("clock moved backward: %v", c)
	}

	var out Outcome
	ok, err := srv.StepOneInto(&out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("StepOneInto consumed nothing with queued work")
	}
	if out.Start != 5 || out.Finish != 5+out.Elapsed {
		t.Fatalf("outcome start/finish %v/%v, want 5/%v", out.Start, out.Finish, 5+out.Elapsed)
	}
	if c := srv.Clock(); c != 5 {
		t.Fatalf("StepOneInto advanced the clock to %v", c)
	}
	// The in-flight request's remaining service counts as queue wait
	// until the clock catches up with its finish.
	if _, wait, _ := srv.QueueStateAt(srv.Clock()); wait < out.Elapsed {
		t.Fatalf("queue state ignores in-flight residual: wait=%v, elapsed=%v", wait, out.Elapsed)
	}
	srv.AdvanceClock(out.Finish)
	if _, wait, _ := srv.QueueStateAt(srv.Clock()); wait != srvQueueMeanOnly(srv) {
		t.Fatalf("residual not cleared after clock caught up: wait=%v", wait)
	}

	// Drain keeps the classic semantics: clock lands on the finish.
	outs, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("Drain ran %d requests, want the one still queued", len(outs))
	}
	if c := srv.Clock(); c != outs[0].Finish {
		t.Fatalf("Drain left clock at %v, want %v", c, outs[0].Finish)
	}
}

// srvQueueMeanOnly reads the queued backlog mean without the residual
// (the queue is what remains after the pops above).
func srvQueueMeanOnly(s *Server) float64 {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.qWaitMean
}

// TestAutoRecalibrateOnCadence drives the virtual clock across cadence
// boundaries with drifted feedback and checks the automatic policy
// recalibrates the drifted tenant — and only it — surfacing the count
// in Stats.
func TestAutoRecalibrateOnCadence(t *testing.T) {
	srv, _ := newTestServer(t, Config{RecalEvery: 10})

	// No drift: crossing a boundary must not recalibrate anyone.
	srv.AdvanceClock(11)
	for _, ts := range srv.Stats().Tenants {
		if ts.AutoRecalibrations != 0 {
			t.Fatalf("quiet tenant %s auto-recalibrated", ts.Name)
		}
	}

	// Drift alpha far off-calibration, then cross the next boundary.
	ta, err := srv.Tenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < driftMinSamples+4; i++ {
		ta.feedback.record(observed(syntheticPrediction(1.0, 0.1), 3.0))
	}
	srv.AdvanceClock(21)
	for _, ts := range srv.Stats().Tenants {
		want := uint64(0)
		if ts.Name == "alpha" {
			want = 1
		}
		if ts.AutoRecalibrations != want {
			t.Errorf("tenant %s auto-recalibrations = %d, want %d", ts.Name, ts.AutoRecalibrations, want)
		}
		if ts.Recalibrations != want {
			t.Errorf("tenant %s recalibrations = %d, want %d", ts.Name, ts.Recalibrations, want)
		}
	}

	// The feedback reset on the swap: the next boundary is quiet again.
	srv.AdvanceClock(31)
	for _, ts := range srv.Stats().Tenants {
		if ts.Name == "alpha" && ts.AutoRecalibrations != 1 {
			t.Errorf("alpha re-recalibrated without fresh drift: %d", ts.AutoRecalibrations)
		}
	}
}

// TestDispatcherRunsAutoRecalibration: the wall-clock dispatcher also
// runs the cadence check, so a long-lived server closes the loop
// without any explicit Drain/AdvanceClock caller.
func TestDispatcherRunsAutoRecalibration(t *testing.T) {
	srv, qs := newTestServer(t, Config{RecalEvery: 0.001})
	ta, err := srv.Tenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < driftMinSamples+4; i++ {
		ta.feedback.record(observed(syntheticPrediction(1.0, 0.1), 3.0))
	}
	// Submitting and draining advances the virtual clock past the tiny
	// cadence; the dispatcher performs both.
	if _, err := srv.Submit(context.Background(), Request{Tenant: "alpha", Query: qs[0], Deadline: 100}); err != nil {
		t.Fatal(err)
	}
	stop := srv.StartDispatcher(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ta.autoRecals.Load() > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	if ta.autoRecals.Load() == 0 {
		t.Fatal("dispatcher never triggered the advised recalibration")
	}
}
