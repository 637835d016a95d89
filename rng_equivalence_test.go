package uaqetp

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// executeSamples runs n distinctly-named copies of the join query
// through sys and returns the measured times. Each name derives a
// distinct measurement-stream key, so the samples are independent
// draws from the system's measurement distribution.
func executeSamples(t *testing.T, sys *System, n int) []float64 {
	t.Helper()
	out := make([]float64, n)
	for i := range out {
		q := joinQuery()
		q.Name = fmt.Sprintf("rng-eq-%d", i)
		v, err := sys.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

func meanCV(xs []float64) (mean, cv float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss/float64(len(xs)-1)) / mean
}

// TestExecuteRNGVersionsAgreeInDistribution is the statistical-
// equivalence gate between the measurement streams: v1 (historical
// math/rand) and v2 (counter-based) must produce the same measured-time
// distribution for the same workload — same mean within a few percent,
// same relative spread — differing only in which pseudorandom draws
// realize it. A v2 bug that skewed or re-scaled measurements (wrong
// normal transform, reused draws, bad key mixing) shows up here even
// though no golden covers v2 at the root API.
func TestExecuteRNGVersionsAgreeInDistribution(t *testing.T) {
	const n = 300

	sysV1 := testSystem(t) // zero-value Config.RNG is v1
	cfgV2 := DefaultConfig()
	cfgV2.RNG = RNGv2
	sysV2, err := Open(cfgV2)
	if err != nil {
		t.Fatal(err)
	}

	m1, cv1 := meanCV(executeSamples(t, sysV1, n))
	m2, cv2 := meanCV(executeSamples(t, sysV2, n))
	t.Logf("v1: mean %.6g cv %.4f; v2: mean %.6g cv %.4f", m1, cv1, m2, cv2)

	if rel := math.Abs(m2-m1) / m1; rel > 0.05 {
		t.Errorf("v1/v2 measured-time means differ by %.1f%% (v1 %.6g, v2 %.6g)", rel*100, m1, m2)
	}
	if cv1 > 0 {
		if rel := math.Abs(cv2-cv1) / cv1; rel > 0.30 {
			t.Errorf("v1/v2 coefficients of variation differ by %.0f%% (v1 %.4f, v2 %.4f)", rel*100, cv1, cv2)
		}
	}
}

// TestExecuteWarmAllocsV2 pins the alloc count of a warm Execute under
// the v2 measurement stream: with the plan memo warm, an execution is
// the engine run plus a stack-allocated measurement stream — the v1
// path's per-execution rand.Rand (and its ~5 KB seeding) must not
// creep back in.
func TestExecuteWarmAllocsV2(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cfg := DefaultConfig()
	cfg.RNG = RNGv2
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := joinQuery()
	if _, err := sys.ExecuteContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	perCall := testing.AllocsPerRun(50, func() {
		if _, err := sys.ExecuteContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	})
	cfg.RNG = RNGv1
	sysV1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sysV1.ExecuteContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	perCallV1 := testing.AllocsPerRun(50, func() {
		if _, err := sysV1.ExecuteContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Execute: v2 %.1f allocs/call, v1 %.1f allocs/call", perCall, perCallV1)
	if perCall >= perCallV1 {
		t.Errorf("warm v2 Execute allocates %.1f allocs/call, not below v1's %.1f", perCall, perCallV1)
	}
}
