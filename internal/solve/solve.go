// Package solve provides the small dense linear-algebra kit the predictor
// needs: least squares via normal equations with Cholesky, and a
// Lawson–Hanson non-negative least squares (NNLS) solver. NNLS is exactly
// the quadratic program of Section 4.2 of the paper,
//
//	minimize ||A b - y||  subject to  b_i >= 0,
//
// which the authors solved with Scilab's qpsolve; this package is the
// stdlib-only substitute.
package solve

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("solve: singular system")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix returns a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("solve: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// MulVec returns m * x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("solve: MulVec dimension mismatch %d vs %d", len(x), m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Gram returns A^T A (Cols x Cols, symmetric positive semidefinite).
func (m *Matrix) Gram() *Matrix {
	g := NewMatrix(m.Cols, m.Cols)
	for i := 0; i < m.Cols; i++ {
		for j := i; j < m.Cols; j++ {
			var s float64
			for r := 0; r < m.Rows; r++ {
				s += m.At(r, i) * m.At(r, j)
			}
			g.Set(i, j, s)
			g.Set(j, i, s)
		}
	}
	return g
}

// TransMulVec returns A^T y.
func (m *Matrix) TransMulVec(y []float64) []float64 {
	if len(y) != m.Rows {
		panic("solve: TransMulVec dimension mismatch")
	}
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		yi := y[i]
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			out[j] += v * yi
		}
	}
	return out
}

// Cholesky factors the symmetric positive-definite matrix a in place into
// the lower-triangular L with a = L L^T and returns L. A small diagonal
// jitter is retried once if the matrix is semidefinite up to roundoff.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("solve: Cholesky of non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 {
			return nil, ErrSingular
		}
		l.Set(j, j, math.Sqrt(d))
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/l.At(j, j))
		}
	}
	return l, nil
}

// SolveSPD solves a x = b for symmetric positive-definite a using a
// Cholesky factorization.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	// Forward substitution: L z = b.
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * z[k]
		}
		z[i] = s / l.At(i, i)
	}
	// Back substitution: L^T x = z.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min ||A x - y||_2 via the normal equations with a
// small ridge term for numerical robustness on ill-conditioned probes.
func LeastSquares(a *Matrix, y []float64) ([]float64, error) {
	g := a.Gram()
	// Ridge proportional to the trace keeps the shift scale-free.
	var tr float64
	for i := 0; i < g.Rows; i++ {
		tr += g.At(i, i)
	}
	eps := 1e-12 * (tr/float64(g.Rows) + 1)
	for i := 0; i < g.Rows; i++ {
		g.Set(i, i, g.At(i, i)+eps)
	}
	return SolveSPD(g, a.TransMulVec(y))
}

// NNLS solves min ||A x - y||_2 subject to x >= 0 using the classical
// Lawson–Hanson active-set algorithm. nonneg[i] == false exempts
// coordinate i from the constraint (the paper constrains only the
// leading coefficients; intercepts are free).
func NNLS(a *Matrix, y []float64, nonneg []bool) ([]float64, error) {
	n := a.Cols
	if nonneg == nil {
		nonneg = make([]bool, n)
		for i := range nonneg {
			nonneg[i] = true
		}
	}
	if len(nonneg) != n {
		return nil, fmt.Errorf("solve: NNLS constraint mask length %d, want %d", len(nonneg), n)
	}

	x := make([]float64, n)
	passive := make([]bool, n)
	// Unconstrained coordinates start in the passive (free) set.
	for i, c := range nonneg {
		if !c {
			passive[i] = true
		}
	}

	solveSubset := func() ([]float64, error) {
		idx := make([]int, 0, n)
		for i, p := range passive {
			if p {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return make([]float64, n), nil
		}
		sub := NewMatrix(a.Rows, len(idx))
		for r := 0; r < a.Rows; r++ {
			for c, j := range idx {
				sub.Set(r, c, a.At(r, j))
			}
		}
		zs, err := LeastSquares(sub, y)
		if err != nil {
			return nil, err
		}
		full := make([]float64, n)
		for c, j := range idx {
			full[j] = zs[c]
		}
		return full, nil
	}

	const maxOuter = 300
	// Initialize free (unconstrained) coordinates to their least-squares
	// values so the KKT test below sees the correct residual.
	if anyFree := func() bool {
		for _, p := range passive {
			if p {
				return true
			}
		}
		return false
	}(); anyFree {
		z, err := solveSubset()
		if err != nil {
			return nil, err
		}
		copy(x, z)
	}
	for outer := 0; outer < maxOuter; outer++ {
		// Gradient of 0.5||Ax-y||^2 is A^T(Ax - y); w = -gradient.
		r := a.MulVec(x)
		for i := range r {
			r[i] = y[i] - r[i]
		}
		w := a.TransMulVec(r)

		// Find the most violated KKT coordinate among active constraints.
		best, bestW := -1, 1e-10
		for i := 0; i < n; i++ {
			if !passive[i] && nonneg[i] && w[i] > bestW {
				best, bestW = i, w[i]
			}
		}
		if best < 0 {
			return x, nil // KKT satisfied
		}
		passive[best] = true

		for inner := 0; inner < maxOuter; inner++ {
			z, err := solveSubset()
			if err != nil {
				return nil, err
			}
			// Feasible? Then accept.
			feasible := true
			for i := 0; i < n; i++ {
				if passive[i] && nonneg[i] && z[i] <= 0 {
					feasible = false
					break
				}
			}
			if feasible {
				copy(x, z)
				break
			}
			// Step toward z as far as feasibility allows.
			alpha := math.Inf(1)
			for i := 0; i < n; i++ {
				if passive[i] && nonneg[i] && z[i] <= 0 {
					if d := x[i] - z[i]; d > 0 {
						if t := x[i] / d; t < alpha {
							alpha = t
						}
					}
				}
			}
			if math.IsInf(alpha, 1) {
				alpha = 0
			}
			for i := 0; i < n; i++ {
				if passive[i] {
					x[i] += alpha * (z[i] - x[i])
				}
			}
			// Move coordinates that hit the bound back to the active set.
			for i := 0; i < n; i++ {
				if passive[i] && nonneg[i] && x[i] <= 1e-14 {
					x[i] = 0
					passive[i] = false
				}
			}
		}
	}
	return x, nil // best effort after iteration cap
}
