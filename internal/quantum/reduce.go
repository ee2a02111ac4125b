package quantum

import (
	"runtime"
)

// Deterministic fixed-geometry chunk machinery.
//
// Every reduction the engine runs over the amplitude array (diagonal
// expectations, the adjoint sweep's inner products and mixer matrix
// elements) and every streamed diagonal kernel runs over the SAME chunk
// layout: the array is split into contiguous chunks of ChunkLen(dim)
// elements — a geometry fixed by the dimension alone, never by
// GOMAXPROCS — and per-chunk partial results are combined left-to-right
// in chunk order. Workers may compute chunks in any order on any number
// of goroutines; because the merge order and the within-chunk
// accumulation order are fixed, the result is bit-identical at 1, 2, or
// 64 workers. Arrays no longer than one chunk reduce in a single serial
// pass, so registers of up to 13 qubits keep the exact summation order
// (and therefore the exact bits) of the serial reference reductions —
// Norm, InnerProduct and InnerProductSumX, which never chunk.
//
// Chunk work is executed by the persistent worker pool (pool.go); the
// pool only ever changes WHO computes a chunk, never which chunks
// exist or how partials merge.

// ReduceChunkLen is the base chunk length of the deterministic
// reduction geometry: 2^13 amplitudes = 128 KiB of complex128 per
// chunk, small enough to block for L2 and large enough to amortize
// scheduling.
const ReduceChunkLen = 1 << 13

// LargeChunkDim is the dimension from which the chunk length steps up
// to LargeReduceChunkLen: at 2^20 amplitudes and beyond, 2^13-element
// chunks mean ≥128 dispatches' worth of scheduling per pass, so larger
// chunks amortize better while 2^15 complex128 (512 KiB) still blocks
// within L2 on current cores.
const LargeChunkDim = 1 << 20

// LargeReduceChunkLen is the chunk length for dimensions of
// LargeChunkDim and above.
const LargeReduceChunkLen = 1 << 15

// ParallelDim is the state-vector length from which kernels fan chunks
// out across goroutines. Below it (n < 16 qubits) the whole vector fits
// in cache and fan-out costs more than it saves; at and above it,
// element-wise kernels and chunk reductions use the worker pool.
const ParallelDim = 1 << 16

// ChunkLen returns the fixed chunk length for an array of length dim —
// a pure function of the dimension, so the chunk geometry (and with it
// every reduction's merge order) never depends on GOMAXPROCS. Arrays
// shorter than one chunk are processed as a single range.
func ChunkLen(dim int) int {
	if dim >= LargeChunkDim {
		return LargeReduceChunkLen
	}
	return ReduceChunkLen
}

// reduceChunkCount returns the number of fixed-geometry chunks for an
// array of length dim (a power of two).
func reduceChunkCount(dim int) int {
	clen := ChunkLen(dim)
	if dim <= clen {
		return 1
	}
	return dim / clen
}

// reduceParallel reports whether chunk work for an array of length dim
// should fan out across the worker pool. The answer never changes the
// chunk geometry or merge order, only the scheduling.
func reduceParallel(dim int) bool {
	return dim >= ParallelDim && runtime.GOMAXPROCS(0) > 1
}

// ReduceChunks evaluates f over every fixed-geometry chunk of [0, dim)
// and returns the two partial sums combined in chunk order. f must be
// pure over its range (no shared mutable state); it receives disjoint
// [lo, hi) ranges. The combination a = ((a₀+a₁)+a₂)+… is identical
// whether chunks run serially or on any number of workers, so results
// are bit-reproducible across GOMAXPROCS settings.
func ReduceChunks(dim int, f func(lo, hi int) (a, b float64)) (a, b float64) {
	nc := reduceChunkCount(dim)
	if nc == 1 {
		return f(0, dim)
	}
	clen := ChunkLen(dim)
	if !reduceParallel(dim) {
		for c := 0; c < nc; c++ {
			pa, pb := f(c*clen, (c+1)*clen)
			a += pa
			b += pb
		}
		return a, b
	}
	return dispatchReduce(nc, clen, f)
}
