// Package stats provides the probability and statistics primitives used
// throughout the predictor: the normal distribution and its non-central
// moments, moments of products of independent normals, correlation
// coefficients (Pearson and Spearman), and the D_n distribution-proximity
// metric from Section 6.3 of the paper.
package stats

import (
	"fmt"
	"math"
)

// Normal is a Gaussian distribution N(mu, sigma^2). The zero value is the
// degenerate point mass at 0 (sigma = 0), which is a legal distribution
// here: constant cost functions (type C1') produce exactly that.
type Normal struct {
	Mu    float64 // mean
	Sigma float64 // standard deviation (>= 0)
}

// NormalFromVar returns N(mu, variance), clamping tiny negative variances
// (numerical noise from covariance subtraction) to zero.
func NormalFromVar(mu, variance float64) Normal {
	if variance < 0 {
		variance = 0
	}
	return Normal{Mu: mu, Sigma: math.Sqrt(variance)}
}

// Var returns the variance sigma^2.
func (n Normal) Var() float64 { return n.Sigma * n.Sigma }

// CDF evaluates P(X <= x).
func (n Normal) CDF(x float64) float64 {
	if n.Sigma == 0 {
		if x >= n.Mu {
			return 1
		}
		return 0
	}
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// Quantile returns the p-th quantile (inverse CDF), p in [0,1]. The
// boundary cases are the distribution's true infima/suprema: for sigma >
// 0, Quantile(0) is -Inf and Quantile(1) is +Inf; a point mass returns
// its mean for every p.
func (n Normal) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: quantile probability %v out of [0,1]", p))
	}
	if n.Sigma == 0 {
		return n.Mu
	}
	switch p {
	case 0:
		return math.Inf(-1)
	case 1:
		return math.Inf(1)
	}
	return n.Mu + n.Sigma*StdNormalQuantile(p)
}

// Interval returns the central interval [lo, hi] containing probability
// mass p, e.g. p = 0.95 gives the familiar ±1.96 sigma band. The
// boundary cases follow Quantile: Interval(0) collapses to the median
// and Interval(1) spans (-Inf, +Inf) for sigma > 0.
func (n Normal) Interval(p float64) (lo, hi float64) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: interval mass %v out of [0,1]", p))
	}
	half := (1 - p) / 2
	return n.Quantile(half), n.Quantile(1 - half)
}

// String implements fmt.Stringer.
func (n Normal) String() string {
	return fmt.Sprintf("N(%.6g, %.6g^2)", n.Mu, n.Sigma)
}

// Moment returns the k-th non-central moment E[X^k] for k in 1..4,
// following Table 3 of the paper.
func (n Normal) Moment(k int) float64 {
	mu, s2 := n.Mu, n.Sigma*n.Sigma
	switch k {
	case 1:
		return mu
	case 2:
		return mu*mu + s2
	case 3:
		return mu*mu*mu + 3*mu*s2
	case 4:
		return mu*mu*mu*mu + 6*mu*mu*s2 + 3*s2*s2
	default:
		panic(fmt.Sprintf("stats: unsupported moment order %d", k))
	}
}

// StdNormalQuantile is the inverse CDF of N(0,1) via the Acklam rational
// approximation refined with one Halley step; absolute error is below
// 1e-13 across (0,1).
func StdNormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: quantile probability %v out of (0,1)", p))
	}
	// Coefficients for the Acklam approximation.
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// ProductVar returns Var[XY] for independent normal X, Y (the "normal
// product distribution" of Aroian [8]):
//
//	Var[XY] = mu_x^2 sigma_y^2 + mu_y^2 sigma_x^2 + sigma_x^2 sigma_y^2.
func ProductVar(x, y Normal) float64 {
	sx2, sy2 := x.Var(), y.Var()
	return x.Mu*x.Mu*sy2 + y.Mu*y.Mu*sx2 + sx2*sy2
}

// CovXX2 returns Cov(X, X^2) = 2 mu sigma^2 for normal X.
func CovXX2(x Normal) float64 { return 2 * x.Mu * x.Var() }

// VarX2 returns Var[X^2] = 2 sigma^2 (2 mu^2 + sigma^2) for normal X.
func VarX2(x Normal) float64 {
	s2 := x.Var()
	return 2 * s2 * (2*x.Mu*x.Mu + s2)
}

// CovProductLeft returns Cov(X*Y, X) = mu_y sigma_x^2 for independent
// normal X, Y.
func CovProductLeft(x, y Normal) float64 { return y.Mu * x.Var() }
