package quantum

import (
	"math"
	"math/bits"
)

// Fused QAOA layer kernels.
//
// A QAOA stage is a diagonal phase separator followed by RX on every
// qubit. The LayerRunner collapses it into:
//
//   - ONE cache-blocked low sweep: per fixed-geometry chunk (ChunkLen
//     elements, resident in L2), the optional uniform fill, the phase
//     separator, and every mixer pair whose qubits lie inside the chunk
//     are applied back-to-back while the chunk is hot. For a 2^15
//     chunk that covers qubit pairs (0,1)…(12,13) — all but the top few
//     qubits of even a 28-qubit register.
//   - One full pass per remaining cross-chunk pair (at most ⌈(n−cb)/2⌉
//     passes), in ascending qubit order, plus the last pass: the odd
//     final qubit, or a half register's mirror butterfly (mirror.go).
//
// What bounds a sweep is arithmetic, not memory bandwidth (go run
// ./benchmark -trace holds it against a STREAM-triad probe). Every pair
// pass, here and in the reverse sweep, funnels
// through three butterflies — rxQuad, rxQuadLow (kernels.go) and
// rxQuadMirror — which do real arithmetic on the components (40 flops
// per quadruple where the complex products did 92) and, on an amd64 CPU
// with AVX2, do it in assembly (rx_amd64.s) four doubles wide, or eight
// with AVX-512, in the Go bodies' operation order and without FMA, so to
// the same bits. The reverse sweep's two-state forms of the three are
// assembly too, with the ΣX terms of reverse.go taken in lanes between
// the two states' butterflies and folded by scalar adds in reverse.go's
// order (the fold is a serial chain; inside the butterfly loop its
// latency is hidden). The lone last passes, rxDuo and rxDuoMirror, are
// AVX2 assembly in both. The phase separator's loops are assembly too
// (phase_amd64.s): the stage's factor table, math.Sincos's own algorithm
// on four or eight angles per register, the indexed multiply, two
// amplitudes per register with the factors gathered by 128-bit loads —
// or eight, from a table of up to 16 factors held in ZMM registers — and
// Mul, the element-wise multiply a float phase separator builds and
// applies its phases with: eleven bodies, all but the lone butterflies
// and Mul with an AVX-512 form. The Go bodies stay: they are the only
// path on other GOARCHs and older CPUs, the odd tail of a run, and the
// oracle the assembly is tested against. Still scalar: the lone passes' ΣX terms
// in the reverse sweep, the index fill, and the un-phase, seed and
// expectation folds. Each fold sums one value per chunk in a fixed
// amplitude order — a serial chain of adds whose latency bounds the
// loop — so lanes could only speed it up by adding in another order,
// which moves the bits; the un-phase pass folds first, read-only, and
// then multiplies both states by the vector bodies.
//
// Bit-identity: each amplitude goes through exactly the same arithmetic
// operations in the same algebraic order as FillUniform + phase +
// RXAll — the butterflies of distinct pairs touch disjoint index sets,
// so interleaving them per chunk instead of per pass cannot change any
// intermediate value. The chunk geometry is the fixed ChunkLen(dim)
// layout, so results are also identical at every GOMAXPROCS. Across
// machines the contract is per GOARCH (see rxMix).

// passWalk is the pass sequence of a mixer sweep, shared by
// LayerRunner.Layer and ReverseMixer.Sweep: the low pass, the
// cross-chunk pairs in ascending qubit order from the same first q,
// then the last pass — a half register's mirror butterfly, or the odd
// final qubit's. Every pass is one ReduceChunks walk whose block c is
// chunk c's representatives: the chunk itself for the low pass, and
// [lo>>2, hi>>2), [lo>>1, hi>>1) or [lo>>sh, hi>>sh) for the pair, odd
// and mirror passes. A single-chunk register has only the low pass,
// whose body ends with the last pass itself. The forward's bodies
// return 0; the reverse's return their ΣX terms, folded here pass after
// pass.
type passWalk struct {
	n, dim, clen int  // register width, 2^n, fixed chunk length (≤ dim)
	mirror       bool // the state is a half register (mirror.go)

	// Per-run parameters, written before dispatch, read-only during.
	rx rxCoef // mixer butterfly coefficients
	q  int    // low qubit of the current cross-chunk pair

	lowBody, pairBody, oneBody, mirrorBody func(lo, hi int) float64
}

func newPassWalk(s *State) passWalk {
	dim := len(s.amps)
	return passWalk{n: s.n, dim: dim, clen: min(ChunkLen(dim), dim)}
}

// run walks the passes of RX(theta) and returns their values folded in
// order. A one-chunk register's walk is ReduceChunks' one-chunk case,
// the low body over the whole register, called from here: at n = 8 this
// call site of its own measured 2–3 % more paper_n8 solves/s than the
// indirect call ReduceChunks shares with the expectation, seed and
// un-phase bodies.
func (w *passWalk) run(theta float64) float64 {
	w.rx = newRXCoef(theta)
	if w.dim == w.clen {
		return w.lowBody(0, w.dim)
	}
	v := ReduceChunks(w.dim, w.lowBody)
	cb := bits.TrailingZeros(uint(w.clen))
	w.q = cb - 1
	if w.q%2 != 0 {
		w.q = cb
	}
	for ; w.q+1 < w.n; w.q += 2 {
		v += ReduceChunks(w.dim, w.pairBody)
	}
	switch {
	case w.mirror:
		v += ReduceChunks(w.dim, w.mirrorBody)
	case w.n%2 == 1:
		v += ReduceChunks(w.dim, w.oneBody)
	}
	return v
}

// LayerRunner applies fused QAOA layers (phase separator + RX mixer) to
// one state. It holds the persistent closures the worker pool dispatch
// needs, so warm Layer calls allocate nothing. A runner is bound to its
// state and is not safe for concurrent use.
type LayerRunner struct {
	passWalk
	s   *State
	amp complex128 // uniform-fill amplitude 1/√dim

	// Per-Layer parameters, written before dispatch, read-only during.
	phase func(lo, hi int)
	fill  bool
}

// NewLayerRunner returns a runner bound to s.
func NewLayerRunner(s *State) *LayerRunner {
	r := &LayerRunner{passWalk: newPassWalk(s), s: s, amp: complex(1/math.Sqrt(float64(len(s.amps))), 0)}
	r.lowBody = r.runLow
	r.pairBody = func(lo, hi int) float64 {
		rxQuadRange(r.s.amps, r.q, lo>>2, hi>>2, r.rx.cc, r.rx.cm, r.rx.mm)
		return 0
	}
	r.oneBody = func(lo, hi int) float64 {
		half, i, j := len(r.s.amps)>>1, lo>>1, hi>>1
		rxDuo(r.s.amps[i:j], r.s.amps[half+i:half+j], r.rx.c, r.rx.s)
		return 0
	}
	r.mirrorBody = func(lo, hi int) float64 {
		sh := mirrorShift(r.n)
		mirrorRange(r.s.amps, r.n, lo>>sh, hi>>sh, r.rx)
		return 0
	}
	return r
}

// SetMirror makes the runner treat its state as a half register
// (mirror.go) or, with false, as the full register again.
func (r *LayerRunner) SetMirror(on bool) { r.mirror = on }

// Layer applies one fused QAOA stage to the state: an optional uniform
// refill, the caller's phase separator (called per fixed-geometry
// chunk; nil to skip), and RX(theta) on every qubit — on a half
// register, the dropped qubit included. The amplitudes of a full
// register are bit-identical to FillUniform() + phase over the same
// chunk ranges + RXAll(theta).
func (r *LayerRunner) Layer(theta float64, fill bool, phase func(lo, hi int)) {
	r.phase = phase
	r.fill = fill
	r.run(theta)
}

// runLow processes one chunk of the low sweep: fill, phase, every mixer
// pair both of whose qubits address bits inside the chunk, and — when
// the chunk spans the whole register — the last pass: the odd final
// qubit and a half register's mirror butterfly, fused when they fuse.
// With the assembly each pair pass and a fused mirror pass is one call
// of its body; the Go bodies behind rxQuadRange and mirrorRange are the
// fallback.
// Chunk bounds are ChunkLen-aligned, so the representative ranges
// [lo>>2, hi>>2) and [lo>>1, hi>>1) map exactly onto the chunk's
// butterflies.
func (r *LayerRunner) runLow(lo, hi int) float64 {
	s := r.s
	if r.fill {
		amps, amp := s.amps[lo:hi], r.amp
		for i := range amps {
			amps[i] = amp
		}
	}
	if r.phase != nil {
		r.phase(lo, hi)
	}
	span := hi - lo
	if !rxChunkVec(s.amps[lo:hi], r.rx) {
		for q := 0; 1<<uint(q+1) < span; q += 2 {
			rxQuadRange(s.amps, q, lo>>2, hi>>2, r.rx.cc, r.rx.cm, r.rx.mm)
		}
	}
	if span != len(s.amps) {
		return 0
	}
	fused := r.mirror && mirrorFused(s.n)
	if s.n%2 == 1 && !fused {
		r.oneBody(lo, hi)
	}
	if r.mirror && !(fused && rxMirrorVec(s.amps, r.rx)) {
		mirrorRange(s.amps, s.n, 0, mirrorReps(s.n), r.rx)
	}
	return 0
}
