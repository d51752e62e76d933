// Package linalg provides the small dense linear-algebra kernel the
// HPE regression step needs: matrices, matrix products and a linear
// solver (Gaussian elimination with partial pivoting), plus ordinary
// least squares via the normal equations.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Transpose returns m^T.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m * o.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	r := NewMatrix(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < o.Cols; j++ {
				r.Data[i*r.Cols+j] += a * o.At(k, j)
			}
		}
	}
	return r
}

// MulVec returns m * v for a column vector v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d * vec(%d)", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out
}

// Solve solves A x = b for square A using Gaussian elimination with
// partial pivoting. A and b are not modified. It returns an error for
// singular (or numerically singular) systems.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: Solve needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: Solve rhs length %d != %d", len(b), n)
	}
	// Augmented working copy.
	w := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		maxAbs := math.Abs(w.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w.At(r, col)); v > maxAbs {
				maxAbs = v
				pivot = r
			}
		}
		if maxAbs < 1e-12 {
			return nil, fmt.Errorf("linalg: singular system (pivot %g at column %d)", maxAbs, col)
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				w.Data[col*n+j], w.Data[pivot*n+j] = w.Data[pivot*n+j], w.Data[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		// Eliminate below.
		inv := 1 / w.At(col, col)
		for r := col + 1; r < n; r++ {
			f := w.At(r, col) * inv
			if f == 0 {
				continue
			}
			w.Set(r, col, 0)
			for j := col + 1; j < n; j++ {
				w.Data[r*n+j] -= f * w.Data[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= w.At(i, j) * x[j]
		}
		x[i] = s / w.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min ||X beta - y||^2 via the normal equations
// X^T X beta = X^T y, with a small ridge term for numerical safety on
// nearly collinear designs.
func LeastSquares(x *Matrix, y []float64) ([]float64, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("linalg: design has %d rows but %d targets", x.Rows, len(y))
	}
	if x.Rows < x.Cols {
		return nil, fmt.Errorf("linalg: underdetermined system (%d rows, %d cols)", x.Rows, x.Cols)
	}
	xt := x.Transpose()
	xtx := xt.Mul(x)
	const ridge = 1e-9
	for i := 0; i < xtx.Rows; i++ {
		xtx.Data[i*xtx.Cols+i] += ridge
	}
	xty := xt.MulVec(y)
	return Solve(xtx, xty)
}
