package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"ampsched/internal/rng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fromRows builds a matrix from row slices of equal length.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("At/Set broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases data")
	}
}

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid dims accepted")
		}
	}()
	NewMatrix(0, 3)
}

func TestTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %+v", tr)
	}
}

func TestMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %g", i, j, c.At(i, j))
			}
		}
	}
}

func TestMulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch accepted")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestMulVec(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	v := m.MulVec([]float64{1, 1})
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("MulVec = %v", v)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := fromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x[0], 1, 1e-12) || !approx(x[1], 3, 1e-12) {
		t.Fatalf("Solve = %v", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal requires a row swap.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x[0], 3, 1e-12) || !approx(x[1], 2, 1e-12) {
		t.Fatalf("Solve = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("singular system solved")
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := Solve(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, err := Solve(NewMatrix(2, 2), []float64{1}); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
}

func TestSolveDoesNotModifyInputs(t *testing.T) {
	a := fromRows([][]float64{{3, 1}, {1, 2}})
	b := []float64{4, 5}
	orig := a.Clone()
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatal("Solve modified A")
		}
	}
	if b[0] != 4 || b[1] != 5 {
		t.Fatal("Solve modified b")
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// y = 2 + 3x fitted from 4 exact points.
	x := fromRows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
	y := []float64{2, 5, 8, 11}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(beta[0], 2, 1e-6) || !approx(beta[1], 3, 1e-6) {
		t.Fatalf("beta = %v", beta)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Noisy line: the estimate should be near the truth.
	r := rng.New(3)
	n := 200
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		xv := float64(i) / 10
		x.Set(i, 0, 1)
		x.Set(i, 1, xv)
		y[i] = 1.5 + 0.5*xv + (r.Float64()-0.5)*0.01
	}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(beta[0], 1.5, 0.05) || !approx(beta[1], 0.5, 0.05) {
		t.Fatalf("beta = %v", beta)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("underdetermined accepted")
	}
	if _, err := LeastSquares(NewMatrix(3, 2), []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestQuickSolveRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(5)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.Float64()*10-5)
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64() * 10
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		ax := a.MulVec(x)
		for i := range b {
			if !approx(ax[i], b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		rows, cols := 1+r.Intn(5), 1+r.Intn(5)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.Float64()
		}
		tt := m.Transpose().Transpose()
		for i := range m.Data {
			if tt.Data[i] != m.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
