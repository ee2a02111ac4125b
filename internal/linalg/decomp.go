package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not symmetric positive definite (within floating-point tolerance).
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// ErrSingular is returned by LU-based solvers when a pivot vanishes.
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

// SolveUpperTriangular solves U·x = b by back substitution.
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

// LUDecomp holds an LU factorization with partial pivoting: P·A = L·U.
type LUDecomp struct {
	lu  *Matrix // packed L (unit diagonal, below) and U (on/above diagonal)
	piv []int   // row permutation
}

// LU factors A with partial pivoting.
func LU(a *Matrix) (*LUDecomp, error) {
	a.checkSquare()
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
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
			return nil, ErrSingular
		}
		if p != col {
			ri, rj := lu.Data[p*n:(p+1)*n], lu.Data[col*n:(col+1)*n]
			for k := 0; k < n; k++ {
				ri[k], rj[k] = rj[k], ri[k]
			}
			piv[p], piv[col] = piv[col], piv[p]
		}
		d := lu.At(col, col)
		for i := col + 1; i < n; i++ {
			f := lu.At(i, col) / d
			lu.Set(i, col, f)
			for j := col + 1; j < n; j++ {
				lu.Set(i, j, lu.At(i, j)-f*lu.At(col, j))
			}
		}
	}
	return &LUDecomp{lu: lu, piv: piv}, nil
}

// Solve solves A·x = b.
func (d *LUDecomp) Solve(b Vector) Vector {
	n := d.lu.Rows
	if len(b) != n {
		panic("linalg: rhs length mismatch")
	}
	x := make(Vector, n)
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

// QRDecomp holds a thin Householder QR factorization A = Q·R with
// Q m×n orthonormal columns and R n×n upper triangular (m ≥ n).
type QRDecomp struct {
	Q *Matrix
	R *Matrix
}

// QR computes the thin QR factorization of an m×n matrix with m ≥ n
// using Householder reflections.
func QR(a *Matrix) (*QRDecomp, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("linalg: QR requires rows >= cols, got %dx%d", m, n)
	}
	r := a.Clone()
	// Accumulate Q implicitly by applying reflectors to an m×m identity,
	// then truncating; m is small in this repo so this is fine.
	q := Identity(m)
	v := make(Vector, m)
	for k := 0; k < n; k++ {
		// Build Householder vector for column k.
		normX := 0.0
		for i := k; i < m; i++ {
			normX += r.At(i, k) * r.At(i, k)
		}
		normX = math.Sqrt(normX)
		if normX == 0 {
			continue
		}
		alpha := -math.Copysign(normX, r.At(k, k))
		vnorm2 := 0.0
		for i := k; i < m; i++ {
			vi := r.At(i, k)
			if i == k {
				vi -= alpha
			}
			v[i] = vi
			vnorm2 += vi * vi
		}
		if vnorm2 == 0 {
			continue
		}
		// Apply H = I - 2vvᵀ/vᵀv to R (columns k..n-1).
		for j := k; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += v[i] * r.At(i, j)
			}
			f := 2 * s / vnorm2
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)-f*v[i])
			}
		}
		// Apply H to Q from the right: Q = Q·H.
		for i := 0; i < m; i++ {
			s := 0.0
			for j := k; j < m; j++ {
				s += q.At(i, j) * v[j]
			}
			f := 2 * s / vnorm2
			for j := k; j < m; j++ {
				q.Set(i, j, q.At(i, j)-f*v[j])
			}
		}
	}
	// Truncate to thin factors.
	qt := NewMatrix(m, n)
	rt := NewMatrix(n, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			qt.Set(i, j, q.At(i, j))
		}
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			rt.Set(i, j, r.At(i, j))
		}
	}
	return &QRDecomp{Q: qt, R: rt}, nil
}

// SolveLeastSquares returns the x minimizing ‖A·x − b‖₂ via R·x = Qᵀb.
// It returns ErrSingular when A is rank deficient.
func (d *QRDecomp) SolveLeastSquares(b Vector) (Vector, error) {
	n := d.R.Rows
	for i := 0; i < n; i++ {
		if math.Abs(d.R.At(i, i)) < 1e-12*(1+d.R.MaxAbs()) {
			return nil, ErrSingular
		}
	}
	qtb := d.Q.MulVecT(b)
	return SolveUpperTriangular(d.R, qtb), nil
}

// Solve solves the square system A·x = b via LU with partial pivoting.
func Solve(a *Matrix, b Vector) (Vector, error) {
	lu, err := LU(a)
	if err != nil {
		return nil, err
	}
	return lu.Solve(b), nil
}

// SolveSPD solves A·x = b for symmetric positive-definite A via Cholesky.
func SolveSPD(a *Matrix, b Vector) (Vector, error) {
	ch, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return ch.Solve(b), nil
}

// LeastSquares returns argmin ‖A·x − b‖₂ for m×n A with m ≥ n.
func LeastSquares(a *Matrix, b Vector) (Vector, error) {
	qr, err := QR(a)
	if err != nil {
		return nil, err
	}
	return qr.SolveLeastSquares(b)
}
