package quantum

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// InnerProductDiagonalRange over the whole register must equal
// ⟨s|(D|t⟩)⟩ with D|t⟩ formed amplitude by amplitude.
func TestInnerProductDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := randomKernelState(rng, 6)
	u := randomKernelState(rng, 6)
	diag := make([]float64, s.Dim())
	for i := range diag {
		diag[i] = rng.NormFloat64() * 3
	}
	dt := u.Clone()
	for z, d := range diag {
		dt.amps[z] *= complex(d, 0)
	}
	want := s.InnerProduct(dt)
	re, im := s.InnerProductDiagonalRange(u, 0, diag)
	if got := complex(re, im); cmplx.Abs(got-want) > 1e-12 {
		t.Fatalf("InnerProductDiagonalRange = %v, want %v", got, want)
	}
}

// InnerProductSumX must equal Σ_q ⟨s|X_q|t⟩ with each X_q|t⟩ formed by
// permuting amplitudes.
func TestInnerProductSumX(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{1, 2, 5} {
		s := randomKernelState(rng, n)
		u := randomKernelState(rng, n)
		var want complex128
		for q := 0; q < n; q++ {
			x := u.Clone()
			for z := range x.amps {
				x.amps[z] = u.amps[z^1<<uint(q)]
			}
			want += s.InnerProduct(x)
		}
		got := s.InnerProductSumX(u)
		if cmplx.Abs(got-want) > 1e-12 {
			t.Fatalf("n=%d: InnerProductSumX = %v, want %v", n, got, want)
		}
	}
}

// The adjoint kernels must not allocate: they sit inside the per-stage
// loop of every analytic gradient evaluation.
func TestAdjointKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	s := randomKernelState(rng, 8)
	u := randomKernelState(rng, 8)
	diag := make([]float64, s.Dim())
	for i := range diag {
		diag[i] = rng.Float64()
	}
	var sink complex128
	if allocs := testing.AllocsPerRun(100, func() {
		re, im := s.InnerProductDiagonalRange(u, 0, diag)
		sink += complex(re, im)
		sink += s.InnerProductSumX(u)
		sink += complex(u.SeedDiagonalRange(s, 0, diag), 0)
	}); allocs != 0 {
		t.Fatalf("adjoint kernels allocate %v times per run", allocs)
	}
	_ = sink
}
