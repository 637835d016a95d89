package uaqetp

// BenchmarkAlternativesSubtreeMemo measures what subtree-granular
// memoization buys inside one Alternatives call: each iteration runs
// the 4-way join's alternatives against a cold cache, so every shared
// subtree is either recomputed (no-sharing baseline) or served
// from the subtree section (memo path). The reported subtree-hits/op
// and subtree-misses/op metrics are the acceptance numbers: misses
// equal the distinct subplan signatures, hits cover every further
// occurrence.

import (
	"context"
	"testing"

	"repro/internal/sample"
)

// wholePlanEstimator estimates every plan on its own — sample.Estimate,
// the memo-less call of the subtree walker, so no pass is shared between
// plans — and is the baseline.
type wholePlanEstimator struct {
	samples *sample.DB
	sys     *System
}

func (e *wholePlanEstimator) Estimate(ctx context.Context, p *Plan) (*Estimates, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	est, err := sample.Estimate(p.root, e.samples, e.sys.cat)
	if err != nil {
		return nil, err
	}
	return &Estimates{est: est}, nil
}

func benchAlternatives(b *testing.B, subtree bool) {
	sys, err := Open(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	q := fourWayJoinQuery()
	var hits, misses uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var fresh *System
		var cache *EstimateCache
		if subtree {
			cache = NewEstimateCache(256)
			fresh = sys.With(WithEstimator(&defaultEstimator{
				samples: sys.samples, cat: sys.cat, cache: cache, ns: sys.estNS,
			}))
		} else {
			fresh = sys.With(WithEstimator(&wholePlanEstimator{samples: sys.samples, sys: sys}))
		}
		if _, err := fresh.AlternativesContext(context.Background(), q, WithMaxAlts(6)); err != nil {
			b.Fatal(err)
		}
		if cache != nil {
			st := cache.Stats()
			hits += st.SubtreeHits
			misses += st.SubtreeMisses
		}
	}
	b.StopTimer()
	if subtree {
		if hits == 0 {
			b.Fatal("subtree memo recorded no hits across a 4-way join's alternatives")
		}
		b.ReportMetric(float64(hits)/float64(b.N), "subtree-hits/op")
		b.ReportMetric(float64(misses)/float64(b.N), "subtree-misses/op")
	}
}

// BenchmarkAlternativesSubtreeMemo: alternatives share their common
// subtrees' sampling passes; each distinct subplan signature is
// computed once per (cold) cache and every further occurrence hits.
func BenchmarkAlternativesSubtreeMemo(b *testing.B) { benchAlternatives(b, true) }

// BenchmarkAlternativesWholePlanOnly is the v1 baseline: every
// alternative pays for its full sampling pass.
func BenchmarkAlternativesWholePlanOnly(b *testing.B) { benchAlternatives(b, false) }
