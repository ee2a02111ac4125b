package quantum

import "runtime"

// Deterministic fixed-geometry chunk machinery.
//
// Every pass the engine runs over the amplitude array — the fused layer
// sweep, the reverse mixer sweep, diagonal expectations, the adjoint
// seed and un-phase — runs over the SAME chunk layout, through one walk
// (ReduceChunks): the array is split into contiguous chunks of
// ChunkLen(dim) elements — a geometry fixed by the dimension alone,
// never by GOMAXPROCS — and each chunk gives one partial, the partials
// combined left-to-right in chunk order. Workers may compute chunks in
// any order on any number of goroutines; because the merge order and
// the within-chunk accumulation order are fixed, the result is
// bit-identical at 1, 2, or 64 workers. Arrays no longer than one
// chunk reduce in a single serial pass, so registers of up to 13 qubits
// keep the exact summation order (and therefore the exact bits) of the
// serial reference reductions — Norm, InnerProduct and
// InnerProductSumX, which never chunk.
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

// ParallelDim is the state-vector length from which ReduceChunks fans
// chunks out across goroutines. Below it (n < 16 qubits) the whole
// vector fits in cache and fan-out costs more than it saves; at and
// above it, every chunk pass uses the worker pool.
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

// ReduceChunks runs f over every fixed-geometry chunk of [0, dim) and
// returns the chunk partials folded left to right: ((f₀+f₁)+f₂)+…, or
// f(0, dim) itself when the array is one chunk. It is the one way the
// engine walks a register: reductions return their chunk's sum and
// element-wise passes return 0. Chunks run serially below ParallelDim
// (or at GOMAXPROCS 1) and on the worker pool from it; f receives
// disjoint [lo, hi) ranges and must be safe to run on them
// concurrently. The fold is the same either way, so results are
// bit-reproducible across GOMAXPROCS settings.
func ReduceChunks(dim int, f func(lo, hi int) float64) (sum float64) {
	nc := reduceChunkCount(dim)
	if nc == 1 {
		return f(0, dim)
	}
	clen := ChunkLen(dim)
	if dim >= ParallelDim && runtime.GOMAXPROCS(0) > 1 {
		return dispatch(nc, clen, f)
	}
	for c := 0; c < nc; c++ {
		sum += f(c*clen, (c+1)*clen)
	}
	return sum
}
