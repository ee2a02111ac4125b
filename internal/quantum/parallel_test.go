package quantum

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Cross-GOMAXPROCS bit-identity suite. Every kernel that fans out across
// goroutines — element-wise gates and fixed-geometry reductions alike —
// must produce EXACTLY the same bits at 1, 2, and 8 workers. Tolerance
// comparisons would hide merge-order bugs, so everything here compares
// with == on float64/complex128 values.

// withWorkers runs fn under each GOMAXPROCS setting and hands the
// results to check for exact comparison against the 1-worker baseline.
func withWorkers(t *testing.T, workers []int, fn func() any, check func(t *testing.T, baseline, got any, w int)) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var baseline any
	for _, w := range workers {
		runtime.GOMAXPROCS(w)
		got := fn()
		if baseline == nil {
			baseline = got
			continue
		}
		check(t, baseline, got, w)
	}
}

var identityWorkers = []int{1, 2, 8}

// randomParallelState builds a deterministic pseudo-random normalized
// state large enough (n ≥ 16) to engage the parallel kernel paths.
func randomParallelState(n int, seed int64) *State {
	rng := rand.New(rand.NewSource(seed))
	s := NewState(n)
	for i := range s.amps {
		s.amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	s.Normalize()
	return s
}

func ampsEqualExact(t *testing.T, name string, a, b *State, w int) {
	t.Helper()
	for i := range a.amps {
		if a.amps[i] != b.amps[i] {
			t.Fatalf("%s: amplitude %d differs at GOMAXPROCS=%d: %v != %v",
				name, i, w, b.amps[i], a.amps[i])
		}
	}
}

func TestGateKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	const n = 16 // 2^16 amplitudes: at the ParallelDim threshold
	kernels := []struct {
		name string
		run  func(s *State)
	}{
		{"RXAll", func(s *State) { s.RXAll(0.7321) }},
		{"Apply1Q-RX", func(s *State) { s.RX(3, 1.234) }},
		{"Apply1Q-highbit", func(s *State) { s.RX(n-1, 0.456) }},
		{"RZ", func(s *State) { s.RZ(5, 0.987) }},
		{"Normalize", func(s *State) { s.amps[0] *= 3; s.Normalize() }},
		{"FillUniform", func(s *State) { s.FillUniform() }},
	}
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			withWorkers(t, identityWorkers,
				func() any {
					s := randomParallelState(n, 42)
					k.run(s)
					return s
				},
				func(t *testing.T, baseline, got any, w int) {
					ampsEqualExact(t, k.name, baseline.(*State), got.(*State), w)
				})
		})
	}
}

func TestDiagonalKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	const n = 16
	dim := 1 << n
	rng := rand.New(rand.NewSource(7))
	phases := make([]float64, dim)
	idx := make([]int32, dim)
	for i := range phases {
		phases[i] = rng.NormFloat64()
		idx[i] = int32(i % 17)
	}
	factors := make([]complex128, 17)
	for i := range factors {
		sin, cos := math.Sincos(0.3 * float64(i))
		factors[i] = complex(cos, sin)
	}
	kernels := []struct {
		name string
		run  func(s *State)
	}{
		{"ApplyDiagonalPhase", func(s *State) { s.ApplyDiagonalPhase(phases) }},
		{"MulDiagonalIndexed", func(s *State) {
			runRange(dim, s.parallel(), func(lo, hi int) { s.MulDiagonalIndexedRange(lo, idx[lo:hi], factors) })
		}},
	}
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			withWorkers(t, identityWorkers,
				func() any {
					s := randomParallelState(n, 43)
					k.run(s)
					return s
				},
				func(t *testing.T, baseline, got any, w int) {
					ampsEqualExact(t, k.name, baseline.(*State), got.(*State), w)
				})
		})
	}
}

func TestReductionsBitIdenticalAcrossWorkers(t *testing.T) {
	const n = 16
	dim := 1 << n
	rng := rand.New(rand.NewSource(11))
	diag := make([]float64, dim)
	for i := range diag {
		diag[i] = rng.NormFloat64()
	}
	reductions := []struct {
		name string
		run  func(s, u *State) any
	}{
		{"Norm", func(s, u *State) any { return s.Norm() }},
		{"InnerProduct", func(s, u *State) any { return s.InnerProduct(u) }},
		{"ExpectationDiagonal", func(s, u *State) any { return s.ExpectationDiagonal(diag) }},
		{"InnerProductDiagonal", func(s, u *State) any {
			re, im := ReduceChunks(dim, func(lo, hi int) (float64, float64) {
				return s.InnerProductDiagonalRange(u, lo, diag[lo:hi])
			})
			return complex(re, im)
		}},
		{"InnerProductSumX", func(s, u *State) any { return s.InnerProductSumX(u) }},
	}
	for _, r := range reductions {
		r := r
		t.Run(r.name, func(t *testing.T) {
			withWorkers(t, identityWorkers,
				func() any {
					s := randomParallelState(n, 44)
					u := randomParallelState(n, 45)
					return r.run(s, u)
				},
				func(t *testing.T, baseline, got any, w int) {
					if baseline != got {
						t.Fatalf("%s: GOMAXPROCS=%d result %v != baseline %v",
							r.name, w, got, baseline)
					}
				})
		})
	}
}

// TestChunkedReductionMatchesSerialSum pins the chunk geometry itself:
// at n=14 (4 chunks, below the parallel threshold) the chunked sum must
// equal the explicit ((c0+c1)+c2)+c3 merge, and ReduceChunks must hand
// out exactly the fixed [c·8192, (c+1)·8192) ranges.
func TestChunkedReductionMatchesSerialSum(t *testing.T) {
	const n = 14
	dim := 1 << n
	s := randomParallelState(n, 99)
	var want float64
	for c := 0; c < dim/ReduceChunkLen; c++ {
		want += normSqPartial(s.amps[c*ReduceChunkLen : (c+1)*ReduceChunkLen])
	}
	if got := s.Norm(); got != math.Sqrt(want) {
		t.Fatalf("chunked Norm %v != fixed-order merge %v", got, math.Sqrt(want))
	}

	var ranges [][2]int
	ReduceChunks(dim, func(lo, hi int) (float64, float64) {
		ranges = append(ranges, [2]int{lo, hi}) // below ParallelDim: serial, in order
		return 0, 0
	})
	if len(ranges) != dim/ReduceChunkLen {
		t.Fatalf("ReduceChunks produced %d chunks, want %d", len(ranges), dim/ReduceChunkLen)
	}
	for c, r := range ranges {
		if r[0] != c*ReduceChunkLen || r[1] != (c+1)*ReduceChunkLen {
			t.Fatalf("chunk %d range %v, want [%d,%d)", c, r, c*ReduceChunkLen, (c+1)*ReduceChunkLen)
		}
	}
}

// TestSmallRegisterSingleChunk pins the compatibility guarantee: up to
// 2^13 amplitudes everything reduces in one serial pass, preserving the
// exact bits of the pre-chunking kernels.
func TestSmallRegisterSingleChunk(t *testing.T) {
	for _, n := range []int{1, 8, 13} {
		if got := reduceChunkCount(1 << n); got != 1 {
			t.Fatalf("n=%d: reduceChunkCount = %d, want 1", n, got)
		}
	}
	if got := reduceChunkCount(1 << 14); got != 2 {
		t.Fatalf("n=14: reduceChunkCount = %d, want 2", got)
	}
}
