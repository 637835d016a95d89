package uaqetp

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/workload"
)

// TestFlightCancelDoesNotFailWaiters is the regression test for the
// coalesced-cache cancellation wart: a computation canceled by the
// caller that started it must not fail waiters whose own contexts are
// live — they retry under their own context and succeed.
func TestFlightCancelDoesNotFailWaiters(t *testing.T) {
	g := newSection[int](8, nil)

	ctxA, cancelA := context.WithCancel(context.Background())
	started := make(chan struct{})
	computerDone := make(chan error, 1)
	go func() {
		_, err := g.get(ctxA, keyRecord("k", nil), func() (int, error) {
			close(started)
			<-ctxA.Done() // simulate a compute aborted by its caller's cancellation
			return 0, ctxA.Err()
		})
		computerDone <- err
	}()
	<-started

	waiterDone := make(chan struct{})
	var waiterVal int
	var waiterErr error
	go func() {
		defer close(waiterDone)
		waiterVal, waiterErr = g.get(context.Background(), keyRecord("k", nil), func() (int, error) {
			return 42, nil
		})
	}()
	// Give the waiter time to join the in-progress flight, then cancel
	// the computing caller out from under it.
	time.Sleep(10 * time.Millisecond)
	cancelA()

	if err := <-computerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("computing caller error = %v, want context.Canceled", err)
	}
	<-waiterDone
	if waiterErr != nil {
		t.Fatalf("waiter inherited the computer's cancellation: %v", waiterErr)
	}
	if waiterVal != 42 {
		t.Fatalf("waiter value = %d, want 42 from its own retry", waiterVal)
	}
	if v, ok := g.lru.Get("k", cache.Hash("k")); !ok || v != 42 {
		t.Fatalf("retried value not cached: %v %v", v, ok)
	}
}

// TestFlightWaiterAbandonsOnOwnCancel: a waiter whose own context fires
// while waiting leaves with its own ctx.Err instead of blocking on a
// stuck computation.
func TestFlightWaiterAbandonsOnOwnCancel(t *testing.T) {
	g := newSection[int](8, nil)

	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		g.get(context.Background(), keyRecord("k", nil), func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started

	ctxB, cancelB := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := g.get(ctxB, keyRecord("k", nil), func() (int, error) { return 2, nil })
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancelB()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter error = %v, want context.Canceled", err)
	}
	close(release)
}

// TestRunMemoSharedAcrossMachines pins the cross-machine run-result
// sharing: engine runs are machine-independent, so two Systems on one
// shared cache that differ only in machine profile execute each plan
// once — while still measuring different (per-profile) running times,
// identical to what private-cache Systems measure.
func TestRunMemoSharedAcrossMachines(t *testing.T) {
	shared := NewEstimateCache(128)
	cfgA := DefaultConfig()
	cfgA.Cache = shared
	cfgB := cfgA
	cfgB.Machine = "PC2"

	a, err := Open(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := a.GenerateWorkload(workload.SelJoin, 4)
	if err != nil {
		t.Fatal(err)
	}

	timesA := make([]float64, len(qs))
	for i, q := range qs {
		if timesA[i], err = a.ExecuteContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	st := shared.Stats()
	if st.RunMisses == 0 || st.RunHits != 0 {
		t.Fatalf("after first system: run hits=%d misses=%d, want 0 hits", st.RunHits, st.RunMisses)
	}
	misses := st.RunMisses

	timesB := make([]float64, len(qs))
	for i, q := range qs {
		if timesB[i], err = b.ExecuteContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	st = shared.Stats()
	if st.RunMisses != misses {
		t.Errorf("PC2 re-executed %d plans despite the shared run memo", st.RunMisses-misses)
	}
	if st.RunHits == 0 {
		t.Error("no cross-machine run-result hits")
	}

	// The memo must not change measured times: a private-cache PC2
	// System measures the same values.
	cfgB.Cache = nil
	fresh, err := Open(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	var differ bool
	for i, q := range qs {
		got, err := fresh.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got != timesB[i] {
			t.Errorf("%s: shared-cache time %v != private-cache time %v", q.Name, timesB[i], got)
		}
		if timesA[i] != timesB[i] {
			differ = true
		}
	}
	if !differ {
		t.Error("PC1 and PC2 measured identical times for every query; profiles not applied")
	}
}
