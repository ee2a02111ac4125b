package quantum

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// randomKernelState returns a normalized random state (shared helper
// randomState lives in state_test.go; this one takes an explicit seed
// sequence for kernel tests).
func randomKernelState(rng *rand.Rand, n int) *State {
	s := NewState(n)
	for i := range s.amps {
		s.amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	s.Normalize()
	return s
}

func maxAmpDiff(a, b *State) float64 {
	worst := 0.0
	for i := range a.amps {
		if d := cmplx.Abs(a.amps[i] - b.amps[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// RXAll must reproduce n sequential RX applications exactly (to
// rounding), for even and odd qubit counts.
func TestRXAllMatchesPerQubitRX(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		for trial := 0; trial < 5; trial++ {
			theta := (rng.Float64() - 0.5) * 4 * math.Pi
			fused := randomKernelState(rng, n)
			ref := fused.Clone()
			fused.RXAll(theta)
			for q := 0; q < n; q++ {
				ref.RX(q, theta)
			}
			if d := maxAmpDiff(fused, ref); d > 1e-12 {
				t.Errorf("n=%d θ=%v: RXAll differs from per-qubit RX by %v", n, theta, d)
			}
		}
	}
}

// FillUniform must agree with the Hadamard layer it replaces.
func TestFillUniformMatchesHadamardLayer(t *testing.T) {
	for _, n := range []int{1, 3, 6} {
		u := NewUniformState(n)
		h := NewState(n)
		for q := 0; q < n; q++ {
			h.H(q)
		}
		if d := maxAmpDiff(u, h); d > 1e-12 {
			t.Errorf("n=%d: uniform fill differs from H layer by %v", n, d)
		}
	}
}

// MulDiagonalIndexedRange with a per-amplitude identity index must
// equal ApplyDiagonalPhase on the same angles.
func TestMulDiagonalIndexedMatchesApplyDiagonalPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	n := 6
	dim := 1 << n
	phases := make([]float64, dim)
	idx := make([]int32, dim)
	factors := make([]complex128, dim)
	for i := range phases {
		phases[i] = (rng.Float64() - 0.5) * 8
		idx[i] = int32(i)
		sin, cos := math.Sincos(phases[i])
		factors[i] = complex(cos, sin)
	}
	a := randomKernelState(rng, n)
	b := a.Clone()
	a.MulDiagonalIndexedRange(0, idx, factors)
	b.ApplyDiagonalPhase(phases)
	if d := maxAmpDiff(a, b); d > 1e-12 {
		t.Errorf("indexed diagonal differs from phase table by %v", d)
	}
}

// A shared-value index table (the distinct-cut memoization pattern)
// must act like the expanded phase table.
func TestMulDiagonalIndexedSharedValues(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	n := 5
	dim := 1 << n
	distinct := []float64{-1.3, 0, 0.7, 2.9}
	factors := make([]complex128, len(distinct))
	for j, ph := range distinct {
		sin, cos := math.Sincos(ph)
		factors[j] = complex(cos, sin)
	}
	idx := make([]int32, dim)
	phases := make([]float64, dim)
	for i := range idx {
		idx[i] = int32(rng.Intn(len(distinct)))
		phases[i] = distinct[idx[i]]
	}
	a := randomKernelState(rng, n)
	b := a.Clone()
	a.MulDiagonalIndexedRange(0, idx, factors)
	b.ApplyDiagonalPhase(phases)
	if d := maxAmpDiff(a, b); d > 1e-12 {
		t.Errorf("shared-value indexed diagonal differs by %v", d)
	}
}

func TestMulDiagonalIndexedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewState(2).MulDiagonalIndexedRange(0, make([]int32, 5), []complex128{1})
}

// The pool-dispatched chunk split must be bit-identical to one serial
// pass, independent of GOMAXPROCS (chunks are disjoint element ranges).
func TestParallelChunksMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	n := 10
	dim := 1 << n
	phases := make([]float64, dim)
	for i := range phases {
		phases[i] = rng.NormFloat64()
	}
	serial := randomKernelState(rng, n)
	chunked := serial.Clone()
	applyPhaseRange(serial.amps, phases)
	dispatch(dim/256, 256, func(lo, hi int) float64 {
		applyPhaseRange(chunked.amps[lo:hi], phases[lo:hi])
		return 0
	})
	for i := range serial.amps {
		if serial.amps[i] != chunked.amps[i] {
			t.Fatalf("amp %d: chunked %v != serial %v", i, chunked.amps[i], serial.amps[i])
		}
	}
}
