package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunCtxResultsInInputOrder: whatever the worker count, item i's
// result and error land in slot i.
func TestRunCtxResultsInInputOrder(t *testing.T) {
	const n = 17
	for _, workers := range []int{1, 3, n + 5} {
		out := make([]int, n)
		errs := RunCtx(context.Background(), n, workers, func(i int) error {
			out[i] = i * i
			if i%5 == 0 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if len(errs) != n {
			t.Fatalf("workers=%d: %d error slots, want %d", workers, len(errs), n)
		}
		for i := range out {
			if out[i] != i*i {
				t.Errorf("workers=%d: slot %d holds %d, want %d", workers, i, out[i], i*i)
			}
			if want := i%5 == 0; (errs[i] != nil) != want {
				t.Errorf("workers=%d: slot %d error %v, want an error: %v", workers, i, errs[i], want)
			} else if want && errs[i].Error() != fmt.Sprintf("item %d", i) {
				t.Errorf("workers=%d: slot %d carries %q", workers, i, errs[i])
			}
		}
		if err := FirstError(errs); err == nil || err.Error() != "item 0" {
			t.Errorf("workers=%d: FirstError = %v, want item 0's", workers, err)
		}
	}
}

// TestRunCtxBoundsConcurrency: never more than workers calls in flight,
// and with enough items the bound is reached. Each call waits for the
// pool to fill (or for the tail of the input), so the peak is exact
// rather than scheduler luck.
func TestRunCtxBoundsConcurrency(t *testing.T) {
	const n, workers = 12, 3
	var inFlight, peak atomic.Int64
	full := make(chan struct{})
	errs := RunCtx(context.Background(), n, workers, func(i int) error {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		if cur == workers {
			select {
			case <-full:
			default:
				close(full)
			}
		}
		<-full
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != workers {
		t.Errorf("peak concurrency %d, want exactly %d", got, workers)
	}
}

// TestRunCtxCancelMidRun: items already inside do finish; every item not
// yet started gets ctx.Err() and do is never called for it.
func TestRunCtxCancelMidRun(t *testing.T) {
	const n, workers = 50, 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	called := make([]bool, n)
	errs := RunCtx(ctx, n, workers, func(i int) error {
		called[i] = true
		if started.Add(1) == workers {
			cancel()
		}
		<-ctx.Done() // every started item outlives the cancellation
		return nil
	})
	if got := started.Load(); got != workers {
		t.Fatalf("%d items started, want %d (one per worker before the cancel)", got, workers)
	}
	for i, err := range errs {
		switch {
		case called[i] && err != nil:
			t.Errorf("item %d ran to completion but reports %v", i, err)
		case !called[i] && !errors.Is(err, context.Canceled):
			t.Errorf("unstarted item %d: error %v, want context.Canceled", i, err)
		}
	}
}

// TestRunCtxEmpty: no items, no calls, no goroutines to wait for.
func TestRunCtxEmpty(t *testing.T) {
	errs := RunCtx(context.Background(), 0, 4, func(int) error {
		t.Error("do called for an empty input")
		return nil
	})
	if len(errs) != 0 || FirstError(errs) != nil {
		t.Errorf("empty run returned %v", errs)
	}
}
