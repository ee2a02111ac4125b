package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD returns a random symmetric positive-definite matrix.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	a := randomMatrix(rng, n, n)
	spd := a.Mul(a.T())
	spd.AddToDiag(float64(n)) // safely away from singular
	return spd
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 8; n++ {
		a := randomSPD(rng, n)
		ch, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !matClose(ch.L.Mul(ch.L.T()), a, 1e-9) {
			t.Errorf("n=%d: L·Lᵀ != A", n)
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomSPD(rng, 6)
	x := randomVector(rng, 6)
	b := a.MulVec(x)
	ch, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.Solve(b); !vecClose(got, x, 1e-8) {
		t.Errorf("Solve = %v, want %v", got, x)
	}
}

// One factorization serves every column of a matrix right-hand side:
// Solve leaves the factor untouched.
func TestCholeskySolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPD(rng, 4)
	xm := randomMatrix(rng, 4, 3)
	bm := a.Mul(xm)
	ch, _ := Cholesky(a)
	for j := 0; j < xm.Cols; j++ {
		b, x := make(Vector, 4), make(Vector, 4)
		for i := range b {
			b[i], x[i] = bm.At(i, j), xm.At(i, j)
		}
		if got := ch.Solve(b); !vecClose(got, x, 1e-8) {
			t.Errorf("column %d: Solve = %v, want %v", j, got, x)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err != ErrNotPositiveDefinite {
		t.Errorf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyLogDet(t *testing.T) {
	a := fromRows([][]float64{{4, 0}, {0, 9}})
	ch, _ := Cholesky(a)
	if got, want := ch.LogDet(), math.Log(36); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogDet = %v, want %v", got, want)
	}
}

// choleskyAt is Cholesky as it was written on At/Set before it read row
// slices: the oracle the slice form must match bit for bit.
func choleskyAt(a *Matrix) (*CholeskyDecomp, error) {
	a.checkSquare()
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return &CholeskyDecomp{L: l}, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Cholesky's L and Solve's x are the At/Set oracle's and the two
// triangular solves' bit for bit, on random SPD matrices of every size
// up to past a 64-point GPR bank, and on the GPR kernel's conditioning
// (an RBF matrix plus a small noise diagonal).
func TestCholeskyMatchesAtOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 0; n <= 70; n++ {
		rbf := NewMatrix(n, n)
		pts := randomVector(rng, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d := pts[i] - pts[j]
				rbf.Set(i, j, math.Exp(-d*d/2))
			}
		}
		for _, a := range []*Matrix{randomSPD(rng, n), rbf.AddToDiag(1e-4)} {
			want, werr := choleskyAt(a)
			got, err := Cholesky(a)
			if err != werr {
				t.Fatalf("n=%d: err %v, oracle %v", n, err, werr)
			}
			if err != nil {
				continue
			}
			if !sameBits(got.L.Data, want.L.Data) {
				t.Fatalf("n=%d: L differs from the At/Set oracle", n)
			}
			b := randomVector(rng, n)
			x := got.Solve(b)
			if wantX := SolveUpperTriangular(got.L.T(), SolveLowerTriangular(got.L, b)); !sameBits(x, wantX) {
				t.Fatalf("n=%d: Solve = %v, two triangular solves %v", n, x, wantX)
			}
		}
	}
}

// Indefinite and non-finite inputs fail, or do not, as the oracle does.
func TestCholeskyFailsAsAtOracle(t *testing.T) {
	late := randomSPD(rand.New(rand.NewSource(14)), 48)
	late.Set(40, 40, -1)
	cases := map[string]*Matrix{
		"indefinite":          fromRows([][]float64{{1, 2}, {2, 1}}),
		"zero pivot":          fromRows([][]float64{{1, 1}, {1, 1}}),
		"negative first":      fromRows([][]float64{{-1, 0}, {0, 1}}),
		"indefinite at 40":    late,
		"NaN diagonal":        fromRows([][]float64{{4, 1, 0}, {1, math.NaN(), 1}, {0, 1, 4}}),
		"NaN first diagonal":  fromRows([][]float64{{math.NaN(), 1}, {1, 4}}),
		"NaN below diagonal":  fromRows([][]float64{{4, 1, 0}, {math.NaN(), 4, 1}, {0, 1, 4}}),
		"+Inf diagonal":       fromRows([][]float64{{4, 1}, {1, math.Inf(1)}}),
		"+Inf below diagonal": fromRows([][]float64{{4, 1}, {math.Inf(1), 4}}),
	}
	for name, a := range cases {
		want, werr := choleskyAt(a)
		got, err := Cholesky(a)
		switch {
		case err != werr:
			t.Errorf("%s: err %v, oracle %v", name, err, werr)
		case err == nil && !sameBits(got.L.Data, want.L.Data):
			t.Errorf("%s: L differs from the At/Set oracle", name)
		}
	}
}

func TestLUSolveAndDet(t *testing.T) {
	a := fromRows([][]float64{{2, 1, 1}, {4, -6, 0}, {-2, 7, 2}})
	var lu LUDecomp
	if err := lu.Factor(a); err != nil {
		t.Fatal(err)
	}
	x := lu.SolveTo(make(Vector, 3), Vector{5, -2, 9})
	if got := a.MulVec(x); !vecClose(got, Vector{5, -2, 9}, 1e-10) {
		t.Errorf("LU solve residual: A·x = %v", got)
	}
	// The factors carry det(A) = sign(P)·Π U[i][i]; by cofactors it is
	// 2(-12-0) -1(8-0) +1(28-12) = -24-8+16 = -16.
	det := 1.0
	for i := range lu.piv {
		det *= lu.lu.At(i, i)
		for j := i + 1; j < len(lu.piv); j++ {
			if lu.piv[j] < lu.piv[i] {
				det = -det // one inversion of the row permutation
			}
		}
	}
	if math.Abs(det-(-16)) > 1e-10 {
		t.Errorf("det from the LU factors = %v, want -16", det)
	}
}

func TestLUSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if err := new(LUDecomp).Factor(a); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveAndSolveSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomSPD(rng, 5)
	x := randomVector(rng, 5)
	b := a.MulVec(x)
	var lu LUDecomp
	if err := lu.Factor(a); err != nil {
		t.Fatal(err)
	}
	if got := lu.SolveTo(make(Vector, 5), b); !vecClose(got, x, 1e-8) {
		t.Errorf("LU SolveTo = %v, want %v", got, x)
	}
	got, err := SolveSPD(a, b)
	if err != nil || !vecClose(got, x, 1e-8) {
		t.Errorf("SolveSPD = %v (err %v), want %v", got, err, x)
	}
}

// Property: for random SPD systems, the Cholesky solution satisfies
// the original system to high relative accuracy.
func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := randomSPD(rng, n)
		b := randomVector(rng, n)
		ch, err := Cholesky(a)
		if err != nil {
			return false
		}
		scale := 0.0
		for _, bi := range b {
			scale = math.Max(scale, math.Abs(bi))
		}
		return vecClose(a.MulVec(ch.Solve(b)), b, 1e-8*(1+scale))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: triangular solves invert triangular multiplies.
func TestTriangularSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		l := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				l.Set(i, j, rng.NormFloat64())
			}
			l.Set(i, i, 1+rng.Float64()) // well away from zero
		}
		x := randomVector(rng, n)
		if !vecClose(SolveLowerTriangular(l, l.MulVec(x)), x, 1e-8) {
			return false
		}
		u := l.T()
		return vecClose(SolveUpperTriangular(u, u.MulVec(x)), x, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
