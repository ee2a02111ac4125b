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
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape = %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 0) != 1 {
		t.Errorf("T entries wrong: %v", tr)
	}
	if !m.T().T().Equal(m, 0) {
		t.Error("double transpose != identity")
	}
}

func TestMatrixMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !got.Equal(want, 1e-12) {
		t.Errorf("Mul =\n%v", got)
	}
}

func TestIdentityIsMulNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 5, 5)
	if !a.Mul(Identity(5)).Equal(a, 1e-12) || !Identity(5).Mul(a).Equal(a, 1e-12) {
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
	want := a.Mul(col).Col(0)
	if got := a.MulVec(v); !got.Equal(want, 1e-12) {
		t.Errorf("MulVec = %v, want %v", got, want)
	}
}

func TestMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 4, 6)
	v := randomVector(rng, 4)
	want := a.T().MulVec(v)
	if got := a.MulVecT(v); !got.Equal(want, 1e-12) {
		t.Errorf("MulVecT = %v, want %v", got, want)
	}
}

func TestMatrixAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{4, 3}, {2, 1}})
	if !a.Add(b).Equal(FromRows([][]float64{{5, 5}, {5, 5}}), 0) {
		t.Error("Add wrong")
	}
	if !a.Sub(a).Equal(NewMatrix(2, 2), 0) {
		t.Error("Sub wrong")
	}
	if !a.Scale(2).Equal(FromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Error("Scale wrong")
	}
}

func TestDiagAndAddToDiag(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if !a.Diag().Equal(Vector{1, 4}, 0) {
		t.Error("Diag wrong")
	}
	a.AddToDiag(10)
	if !a.Diag().Equal(Vector{11, 14}, 0) {
		t.Error("AddToDiag wrong")
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random small matrices.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 3, 4)
		b := randomMatrix(rng, 4, 2)
		return a.Mul(b).T().Equal(b.T().Mul(a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Frobenius norm is submultiplicative: ‖AB‖_F ≤ ‖A‖_F‖B‖_F.
func TestFrobeniusSubmultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 3, 3)
		b := randomMatrix(rng, 3, 3)
		return a.Mul(b).FrobeniusNorm() <= a.FrobeniusNorm()*b.FrobeniusNorm()*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatrixStringDoesNotPanic(t *testing.T) {
	s := FromRows([][]float64{{1, math.Pi}}).String()
	if s == "" {
		t.Error("empty String output")
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
