// Package pool provides the bounded worker-pool primitive shared by the
// batch API and the experiment harness: fan item indices out over a
// fixed number of goroutines, each writing to its own slot, so results
// land in input order without locking.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunCtx dispatches do(0..n-1) to a bounded worker pool and returns the
// per-item errors. workers <= 0 selects GOMAXPROCS; 1 runs the items one
// after another. do(i) must confine its writes to slot i of caller-owned
// slices — slots are distinct, so no locking is needed. Once ctx is
// done, workers stop invoking do and every not-yet-started item's error
// slot is filled with ctx.Err() instead, so a canceled batch drains
// promptly. Items already inside do when the context fires run to
// completion (do may itself observe ctx to cut long items short).
func RunCtx(ctx context.Context, n, workers int, do func(i int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = do(i)
			}
		}()
	}
	wg.Wait()
	return errs
}

// FirstError returns the lowest-index non-nil error, or nil.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
