package stats

import (
	"fmt"
	"math"
	"sort"
)

// Pearson returns the Pearson linear correlation coefficient r_p between
// xs and ys (Equation 7 of the paper). It returns 0 when either series is
// constant (the coefficient is undefined there) or when fewer than two
// pairs are supplied.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: Pearson length mismatch %d vs %d", len(xs), len(ys)))
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// JainIndex is Jain's fairness index (Σx)² / (n·Σx²) over a
// non-negative allocation vector: 1 for perfectly equal allocations,
// 1/n when a single participant takes everything. An empty or all-zero
// sample counts as perfectly fair (there is nothing unequal about
// uniformly nothing).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// ranks returns the fractional (average-tie) ranks of xs, 1-based: the
// smallest value gets rank 1, and tied values share the average of the
// ranks they span.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// positions i..j (0-based) are tied; average rank is the mean of
		// ranks i+1..j+1.
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// Spearman returns the Spearman rank correlation coefficient r_s: the
// Pearson correlation of the fractional ranks. Ties receive average
// ranks, matching the standard definition used by the paper.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: Spearman length mismatch %d vs %d", len(xs), len(ys)))
	}
	return Pearson(ranks(xs), ranks(ys))
}

// DefaultAlphaGrid is the grid of alpha values over (0, 6) on which D_n
// is averaged; it mirrors the grid shown on the x-axis of Figure 5 and
// extends to 6 as stated in Section 6.3.
var DefaultAlphaGrid = []float64{
	0.1, 0.3, 0.5, 0.7, 0.9, 1.0, 1.2, 1.5, 1.8, 2.0,
	2.2, 2.5, 2.8, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0,
}

// prAlpha returns the model-implied probability Pr(alpha) that the
// normalized prediction error |T - mu| / sigma is at most alpha:
// Pr(alpha) = 2*Phi(alpha) - 1.
func prAlpha(alpha float64) float64 {
	std := Normal{Mu: 0, Sigma: 1}
	return 2*std.CDF(alpha) - 1
}

// prnAlpha returns the empirical probability Pr_n(alpha): the fraction of
// queries whose observed normalized error e'_i = |t_i - mu_i| / sigma_i
// is at most alpha. Queries with sigma_i = 0 are counted as within alpha
// exactly when their raw error is zero.
func prnAlpha(normErrs []float64, alpha float64) float64 {
	if len(normErrs) == 0 {
		return 0
	}
	count := 0
	for _, e := range normErrs {
		if e <= alpha {
			count++
		}
	}
	return float64(count) / float64(len(normErrs))
}

// NormalizedErrors computes e'_i = |t_i - mu_i| / sigma_i for each query,
// the statistic underlying both D_n and Figure 5. A zero sigma with a
// nonzero error maps to +Inf.
func NormalizedErrors(actual, predMean, predSigma []float64) []float64 {
	if len(actual) != len(predMean) || len(actual) != len(predSigma) {
		panic("stats: NormalizedErrors length mismatch")
	}
	out := make([]float64, len(actual))
	for i := range actual {
		e := math.Abs(actual[i] - predMean[i])
		switch {
		case predSigma[i] > 0:
			out[i] = e / predSigma[i]
		case e == 0:
			out[i] = 0
		default:
			out[i] = math.Inf(1)
		}
	}
	return out
}

// Dn returns the average over the alpha grid of
// |Pr_n(alpha) - Pr(alpha)|, the distribution-proximity metric of
// Section 6.3; smaller is better.
func Dn(normErrs []float64, alphaGrid []float64) float64 {
	if len(alphaGrid) == 0 {
		alphaGrid = DefaultAlphaGrid
	}
	var sum float64
	for _, a := range alphaGrid {
		sum += math.Abs(prnAlpha(normErrs, a) - prAlpha(a))
	}
	return sum / float64(len(alphaGrid))
}

// DnCurve returns the paired (Pr_n(alpha), Pr(alpha)) series over the
// grid, used to regenerate Figure 5.
func DnCurve(normErrs []float64, alphaGrid []float64) (empirical, model []float64) {
	if len(alphaGrid) == 0 {
		alphaGrid = DefaultAlphaGrid
	}
	empirical = make([]float64, len(alphaGrid))
	model = make([]float64, len(alphaGrid))
	for i, a := range alphaGrid {
		empirical[i] = prnAlpha(normErrs, a)
		model[i] = prAlpha(a)
	}
	return empirical, model
}

// BestFitLine returns the slope and intercept of the least-squares line
// y = slope*x + intercept, used for the "Best-Fit" series in the paper's
// scatter plots (Figures 3, 6, 12). It returns (0, mean(ys)) when xs is
// constant.
func BestFitLine(xs, ys []float64) (slope, intercept float64) {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("stats: BestFitLine needs equal-length non-empty input")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return 0, my
	}
	slope = sxy / sxx
	return slope, my - slope*mx
}
