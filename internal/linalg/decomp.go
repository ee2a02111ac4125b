package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not symmetric positive definite (within floating-point tolerance).
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// ErrSingular is returned by LUDecomp.Factor when a pivot vanishes.
var ErrSingular = errors.New("linalg: matrix is singular")

// CholeskyDecomp holds the lower-triangular factor L with A = L·Lᵀ.
type CholeskyDecomp struct {
	L *Matrix
}

// Cholesky factors a symmetric positive-definite matrix A into L·Lᵀ.
// Only the lower triangle of A is read. Column j of L is computed from
// the finished rows 0..j-1 of L, each entry as one dot product over
// k = 0..j-1 in ascending order.
func Cholesky(a *Matrix) (*CholeskyDecomp, error) {
	a.checkSquare()
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		lj := l.Data[j*n : j*n+j] // L[j][0:j]
		d := a.Data[j*n+j]
		for _, ljk := range lj {
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Data[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			li := l.Data[i*n : i*n+j] // L[i][0:j]
			li = li[:len(lj)]         // as long as lj: no check in the loop
			s := a.Data[i*n+j]
			for k, ljk := range lj {
				s -= li[k] * ljk
			}
			l.Data[i*n+j] = s / ljj
		}
	}
	return &CholeskyDecomp{L: l}, nil
}

// Solve solves A·x = b using the factorization: forward substitution
// with L, then back substitution with Lᵀ read down L's columns, in place.
func (c *CholeskyDecomp) Solve(b Vector) Vector {
	x := SolveLowerTriangular(c.L, b)
	n, l := c.L.Rows, c.L.Data
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	return x
}

// LogDet returns log det(A) = 2·Σ log L[i][i].
func (c *CholeskyDecomp) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.L.Rows; i++ {
		s += math.Log(c.L.At(i, i))
	}
	return 2 * s
}

// SolveLowerTriangular solves L·y = b by forward substitution.
func SolveLowerTriangular(l *Matrix, b Vector) Vector {
	l.checkSquare()
	n := l.Rows
	if len(b) != n {
		panic("linalg: rhs length mismatch")
	}
	y := make(Vector, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Data[i*n : i*n+i]
		for k, lik := range row {
			s -= lik * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	return y
}

// SolveUpperTriangular solves U·x = b by back substitution. No binary
// calls it: it is the reference that CholeskyDecomp.Solve's in-place
// back substitution along L's columns is checked against.
func SolveUpperTriangular(u *Matrix, b Vector) Vector {
	u.checkSquare()
	n := u.Rows
	if len(b) != n {
		panic("linalg: rhs length mismatch")
	}
	x := make(Vector, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= u.At(i, k) * x[k]
		}
		x[i] = s / u.At(i, i)
	}
	return x
}

// LUDecomp holds a factorization with partial pivoting, P·A = L·U, that
// Factor fills and SolveTo solves with. Factor reuses its storage, so
// one LUDecomp serves a loop of same-size solves without allocating.
type LUDecomp struct {
	lu  *Matrix // packed L (unit diagonal, below) and U (on/above diagonal)
	piv []int   // row permutation
}

// Factor factors A with partial pivoting into d, reusing d's storage
// when it already holds a factorization of A's size. A is not modified.
// After an error d holds no usable factorization.
func (d *LUDecomp) Factor(a *Matrix) error {
	a.checkSquare()
	n := a.Rows
	if d.lu == nil || d.lu.Rows != n {
		d.lu, d.piv = NewMatrix(n, n), make([]int, n)
	}
	lu, piv := d.lu, d.piv
	copy(lu.Data, a.Data)
	for i := range piv {
		piv[i] = i
	}
	for col := 0; col < n; col++ {
		// Pivot search.
		p := col
		maxAbs := math.Abs(lu.At(col, col))
		for i := col + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, col)); a > maxAbs {
				maxAbs, p = a, i
			}
		}
		if maxAbs == 0 {
			return ErrSingular
		}
		if p != col {
			ri, rj := lu.Data[p*n:(p+1)*n], lu.Data[col*n:(col+1)*n]
			for k := 0; k < n; k++ {
				ri[k], rj[k] = rj[k], ri[k]
			}
			piv[p], piv[col] = piv[col], piv[p]
		}
		diag := lu.At(col, col)
		for i := col + 1; i < n; i++ {
			f := lu.At(i, col) / diag
			lu.Set(i, col, f)
			for j := col + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-f*lu.At(col, j))
			}
		}
	}
	return nil
}

// SolveTo solves A·x = b into x, which must not share memory with b,
// and returns x.
func (d *LUDecomp) SolveTo(x, b Vector) Vector {
	n := d.lu.Rows
	if len(b) != n || len(x) != n {
		panic("linalg: rhs length mismatch")
	}
	for i := 0; i < n; i++ {
		x[i] = b[d.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		for k := 0; k < i; k++ {
			x[i] -= d.lu.At(i, k) * x[k]
		}
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			x[i] -= d.lu.At(i, k) * x[k]
		}
		x[i] /= d.lu.At(i, i)
	}
	return x
}

// SolveSPD solves A·x = b for symmetric positive-definite A via Cholesky.
func SolveSPD(a *Matrix, b Vector) (Vector, error) {
	ch, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return ch.Solve(b), nil
}
