package costmodel

// The least-squares solve behind the two cost functions that are fitted
// rather than read from the cost model (Section 4.2): at most maxCoef
// coefficients on a handful of probe points, solved exactly on
// caller-owned arrays with no allocation.

import "math"

// maxCoef is the most coefficients a fitted cost function has: C4's
// X², X and 1.
const maxCoef = 3

// nnls solves the quadratic program of Section 4.2: minimize ||A b − y||
// over the first n ≤ maxCoef columns of rows, with every coefficient but
// the last (the intercept) non-negative. The optimum is the unconstrained
// least-squares solution of its own face of the orthant, so with at most
// two constrained coefficients it is found exactly by solving each of the
// ≤ 4 faces and keeping the sign-feasible solution of least residual.
func nnls(rows [][maxCoef]float64, y []float64, n int) [maxCoef]float64 {
	var best [maxCoef]float64
	bestRes := math.Inf(1)
	for fixed := 0; fixed < 1<<(n-1); fixed++ {
		b, ok := lsq(rows, y, n, fixed)
		feasible := ok
		for j := 0; j < n-1; j++ {
			feasible = feasible && b[j] >= 0
		}
		if !feasible {
			continue
		}
		if res := residual(rows, y, b, n); res < bestRes {
			best, bestRes = b, res
		}
	}
	return best
}

// residual returns ||A b − y||² over the first n columns of rows.
func residual(rows [][maxCoef]float64, y []float64, b [maxCoef]float64, n int) float64 {
	var res float64
	for i := range rows {
		d := y[i]
		for j := 0; j < n; j++ {
			d -= rows[i][j] * b[j]
		}
		res += d * d
	}
	return res
}

// lsq solves the normal equations over the first n columns of rows less
// those in the bit set fixed, which stay 0, by Cholesky with a small
// trace-scaled ridge that keeps a nearly flat probe well-posed. ok is
// false when the system is singular.
func lsq(rows [][maxCoef]float64, y []float64, n, fixed int) (b [maxCoef]float64, ok bool) {
	var cols [maxCoef]int
	k := 0
	for j := 0; j < n; j++ {
		if fixed&(1<<j) == 0 {
			cols[k] = j
			k++
		}
	}
	// The lower triangle of G = AᵀA, and r = Aᵀy, over the free columns.
	var g, l [maxCoef][maxCoef]float64
	var r, z [maxCoef]float64
	var tr float64
	for a := 0; a < k; a++ {
		for c := 0; c <= a; c++ {
			for i := range rows {
				g[a][c] += rows[i][cols[a]] * rows[i][cols[c]]
			}
		}
		tr += g[a][a]
		for i := range rows {
			r[a] += rows[i][cols[a]] * y[i]
		}
	}
	eps := 1e-12 * (tr/float64(k) + 1)
	// G + εI = L Lᵀ.
	for j := 0; j < k; j++ {
		d := g[j][j] + eps
		for p := 0; p < j; p++ {
			d -= l[j][p] * l[j][p]
		}
		if d <= 0 {
			return b, false
		}
		l[j][j] = math.Sqrt(d)
		for i := j + 1; i < k; i++ {
			s := g[i][j]
			for p := 0; p < j; p++ {
				s -= l[i][p] * l[j][p]
			}
			l[i][j] = s / l[j][j]
		}
	}
	// L z = r, then Lᵀ b = z.
	for i := 0; i < k; i++ {
		s := r[i]
		for p := 0; p < i; p++ {
			s -= l[i][p] * z[p]
		}
		z[i] = s / l[i][i]
	}
	for i := k - 1; i >= 0; i-- {
		s := z[i]
		for p := i + 1; p < k; p++ {
			s -= l[p][i] * b[cols[p]]
		}
		b[cols[i]] = s / l[i][i]
	}
	return b, true
}
