package stats

import (
	"math"
	"testing"
)

// TestQuantileBoundary pins the boundary contract: q = 0 and q = 1 are
// legal and return the distribution's infimum/supremum.
func TestQuantileBoundary(t *testing.T) {
	n := Normal{Mu: 5, Sigma: 2}
	if v := n.Quantile(0); !math.IsInf(v, -1) {
		t.Errorf("Quantile(0) = %v, want -Inf", v)
	}
	if v := n.Quantile(1); !math.IsInf(v, 1) {
		t.Errorf("Quantile(1) = %v, want +Inf", v)
	}
	if v := n.Quantile(0.5); v != 5 {
		t.Errorf("Quantile(0.5) = %v, want 5 (median)", v)
	}
}

// TestQuantilePointMass: sigma = 0 is a point mass; every quantile is the
// mean, including the boundaries (no NaN from 0 * Inf).
func TestQuantilePointMass(t *testing.T) {
	n := Normal{Mu: -2.5, Sigma: 0}
	for _, q := range []float64{0, 0.001, 0.5, 0.999, 1} {
		if v := n.Quantile(q); v != -2.5 {
			t.Errorf("point mass Quantile(%v) = %v, want -2.5", q, v)
		}
	}
}

// TestIntervalBoundary: Interval(0) collapses to the median; Interval(1)
// spans the whole real line for sigma > 0.
func TestIntervalBoundary(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 1}
	lo, hi := n.Interval(0)
	if lo != 3 || hi != 3 {
		t.Errorf("Interval(0) = [%v, %v], want [3, 3]", lo, hi)
	}
	lo, hi = n.Interval(1)
	if !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Errorf("Interval(1) = [%v, %v], want (-Inf, +Inf)", lo, hi)
	}

	pm := Normal{Mu: 4, Sigma: 0}
	for _, p := range []float64{0, 0.5, 0.95, 1} {
		lo, hi = pm.Interval(p)
		if lo != 4 || hi != 4 {
			t.Errorf("point mass Interval(%v) = [%v, %v], want [4, 4]", p, lo, hi)
		}
	}
}

// TestQuantileStillPanicsOutOfRange: probabilities outside [0, 1] (and
// NaN) remain programming errors.
func TestQuantileStillPanicsOutOfRange(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", p)
				}
			}()
			n.Quantile(p)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Interval(%v) did not panic", p)
				}
			}()
			n.Interval(p)
		}()
	}
}

// TestIntervalQuantileConsistency: for interior p the interval endpoints
// are the half-tail quantiles and enclose the stated mass.
func TestIntervalQuantileConsistency(t *testing.T) {
	n := Normal{Mu: 1, Sigma: 3}
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		lo, hi := n.Interval(p)
		if got := n.CDF(hi) - n.CDF(lo); math.Abs(got-p) > 1e-12 {
			t.Errorf("mass of Interval(%v) = %v", p, got)
		}
	}
}
