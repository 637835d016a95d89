package stats

// Mean returns the arithmetic mean of xs; it returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (divisor n-1). It returns
// 0 for fewer than two observations.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// MeanVar returns both the sample mean and the unbiased sample variance
// in a single pass (Welford's algorithm), which is what the calibration
// framework uses to summarize observed cost units.
func MeanVar(xs []float64) (mean, variance float64) {
	var m, m2 float64
	for i, x := range xs {
		d := x - m
		m += d / float64(i+1)
		m2 += d * (x - m)
	}
	if len(xs) > 1 {
		variance = m2 / float64(len(xs)-1)
	}
	return m, variance
}
