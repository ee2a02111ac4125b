package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Errorf("At(1,2) = %v", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Errorf("zero matrix has nonzero entry")
	}
}

func TestFromRowsAndTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape = %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 0) != 1 {
		t.Errorf("T entries wrong: %v", tr)
	}
	if !matClose(m.T().T(), m, 0) {
		t.Error("double transpose != identity")
	}
}

func TestMatrixMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !matClose(got, want, 1e-12) {
		t.Errorf("Mul =\n%v", got)
	}
}

func TestIdentityIsMulNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 5, 5)
	if !matClose(a.Mul(Identity(5)), a, 1e-12) || !matClose(Identity(5).Mul(a), a, 1e-12) {
		t.Error("identity is not neutral for Mul")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 4, 6)
	v := randomVector(rng, 6)
	col := NewMatrix(6, 1)
	for i, x := range v {
		col.Set(i, 0, x)
	}
	want := a.Mul(col).Data
	if got := a.MulVec(v); !vecClose(got, want, 1e-12) {
		t.Errorf("MulVec = %v, want %v", got, want)
	}
}

// AddToDiag shifts the diagonal of a rectangular matrix and nothing else.
func TestDiagAndAddToDiag(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if !matClose(a.AddToDiag(10), fromRows([][]float64{{11, 2, 3}, {4, 15, 6}}), 0) {
		t.Errorf("AddToDiag =\n%v", a)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random small matrices.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 3, 4)
		b := randomMatrix(rng, 4, 2)
		return matClose(a.Mul(b).T(), b.T().Mul(a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Mul keeps the Frobenius norm submultiplicative:
// ‖AB‖_F ≤ ‖A‖_F‖B‖_F.
func TestFrobeniusSubmultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 3, 3)
		b := randomMatrix(rng, 3, 3)
		return frobenius(a.Mul(b)) <= frobenius(a)*frobenius(b)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randomVector(rng *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// matClose reports whether a and b have the same shape and entries
// within tol.
func matClose(a, b *Matrix, tol float64) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && vecClose(a.Data, b.Data, tol)
}

// vecClose reports whether v and w have the same length and entries
// within tol.
func vecClose(v, w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// frobenius is the Frobenius norm of m.
func frobenius(m *Matrix) float64 { return math.Sqrt(Vector(m.Data).Dot(m.Data)) }
