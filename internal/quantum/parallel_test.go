package quantum

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Cross-GOMAXPROCS bit-identity suite. Every kernel that fans out across
// goroutines — element-wise passes and fixed-geometry reductions alike —
// must produce EXACTLY the same bits at 1, 2, and 8 workers. (The serial
// reference — the gates, Norm, InnerProduct, InnerProductSumX — never
// fans out.) Tolerance comparisons would hide merge-order bugs, so
// everything here compares with == on float64/complex128 values.

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

func TestDiagonalKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	const n = 16
	dim := 1 << n
	idx := make([]int32, dim)
	for i := range idx {
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
		{"ExpectationDiagonal", func(s, u *State) any { return s.ExpectationDiagonal(diag) }},
		{"InnerProductDiagonal", func(s, u *State) any {
			re, im := ReduceChunks(dim, func(lo, hi int) (float64, float64) {
				return s.InnerProductDiagonalRange(u, lo, diag[lo:hi])
			})
			return complex(re, im)
		}},
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
// at n=14 (2 chunks, below the parallel threshold) the chunked sum must
// equal the explicit c0+c1 merge, and ReduceChunks must hand out exactly
// the fixed [c·8192, (c+1)·8192) ranges. The sum is ExpectationDiagonal
// over a table of ones, whose chunk partials are the Σ|a|² folds.
func TestChunkedReductionMatchesSerialSum(t *testing.T) {
	const n = 14
	dim := 1 << n
	s := randomParallelState(n, 99)
	ones := make([]float64, dim)
	for i := range ones {
		ones[i] = 1
	}
	var want float64
	for c := 0; c < dim/ReduceChunkLen; c++ {
		want += normSqPartial(s.amps[c*ReduceChunkLen : (c+1)*ReduceChunkLen])
	}
	if got := s.ExpectationDiagonal(ones); got != want {
		t.Fatalf("chunked ExpectationDiagonal %v != fixed-order merge %v", got, want)
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
