package uaqetp

import (
	"context"
	"fmt"

	"repro/internal/pool"
)

// firstBatchError returns the lowest-index error, wrapped with the
// query it belongs to, or nil.
func firstBatchError(op string, queries []*Query, errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("uaqetp: %s query %d (%s): %w", op, i, queryName(queries[i]), err)
		}
	}
	return nil
}

// PredictBatchContext predicts the running-time distribution of every
// query in the batch using a bounded worker pool (sized by WithWorkers)
// and returns the predictions in input order. It is the high-throughput
// counterpart of PredictContext for the paper's batch consumers —
// admission control, scheduling, and least-expected-cost plan selection
// — which need many predictions at once.
//
// Prediction is deterministic, so the result for a fixed Config.Seed is
// identical to a serial PredictContext loop, regardless of the worker
// count. Nil queries are rejected. If any query fails, the first error
// in input order is returned; predictions for the queries that
// succeeded are still returned, with nil entries at failed indexes.
// Once ctx is done, queries not yet started are skipped with ctx.Err()
// and the call returns promptly (errors.Is the returned error against
// the context's error to distinguish cancellation from query failures).
func (s *System) PredictBatchContext(ctx context.Context, queries []*Query, opts ...CallOption) ([]*Prediction, error) {
	o := newCallOpts(opts)
	preds := make([]*Prediction, len(queries))
	errs := pool.RunCtx(ctx, len(queries), o.workers, func(i int) error {
		if queries[i] == nil {
			return fmt.Errorf("nil query")
		}
		var err error
		preds[i], err = s.PredictContext(ctx, queries[i], opts...)
		return err
	})
	return preds, firstBatchError("PredictBatch", queries, errs)
}

// ExecuteBatchContext runs every query through the Executor stage with a
// bounded worker pool, returning the measured times in input order.
// Execution is deterministic per query (see ExecuteContext), so the
// result does not depend on the worker count. Error and cancellation
// semantics match PredictBatchContext.
func (s *System) ExecuteBatchContext(ctx context.Context, queries []*Query, opts ...CallOption) ([]float64, error) {
	o := newCallOpts(opts)
	times := make([]float64, len(queries))
	errs := pool.RunCtx(ctx, len(queries), o.workers, func(i int) error {
		if queries[i] == nil {
			return fmt.Errorf("nil query")
		}
		var err error
		times[i], err = s.ExecuteContext(ctx, queries[i], opts...)
		return err
	})
	return times, firstBatchError("ExecuteBatch", queries, errs)
}

// CacheStats snapshots the estimate cache backing this System —
// aggregated across shards, and across tenants when the cache is shared.
func (s *System) CacheStats() CacheStats { return s.estCache.Stats() }

func queryName(q *Query) string {
	if q == nil {
		return "<nil>"
	}
	return q.Name
}
