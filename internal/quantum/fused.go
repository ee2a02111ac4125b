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
// pass, here, in the shard exchange and in the reverse sweep, funnels
// through three butterflies — rxQuad, rxQuadLow (kernels.go) and
// rxQuadMirror — which do real arithmetic on the components (40 flops
// per quadruple where the complex products did 92) and, on an amd64 CPU
// with AVX2, do it four doubles wide in assembly (rx_amd64.s), in the Go
// bodies' operation order and without FMA, so to the same bits. The
// reverse sweep's two-state forms of the three are assembly too, with
// the ΣX terms of reverse.go taken in lanes between the two states'
// butterflies and folded by scalar adds in reverse.go's order (the fold
// is a serial chain; inside the butterfly loop its latency is hidden).
// The phase separator's two loops are assembly too (phase_amd64.s): the
// stage's factor table, math.Sincos's own algorithm on four angles per
// register, and the indexed multiply, two amplitudes per register with
// the factors gathered by 128-bit loads — eight bodies in all. The Go
// bodies stay: they are the only path on other GOARCHs and older CPUs,
// the odd tail of a run, and the oracle the assembly is tested against.
// Still scalar: rxDuo and its ΣX terms for an even stored width's last
// pass, the index fill, and the un-phase, seed and expectation loops.
// Each of the last three folds one sum per chunk in a fixed amplitude
// order — a serial chain of adds whose latency bounds the loop — so
// lanes could only speed them up by adding in another order, which moves
// the bits.
//
// Bit-identity: each amplitude goes through exactly the same arithmetic
// operations in the same algebraic order as FillUniform + phase +
// RXAll — the butterflies of distinct pairs touch disjoint index sets,
// so interleaving them per chunk instead of per pass cannot change any
// intermediate value. The chunk geometry is the fixed ChunkLen(dim)
// layout, so results are also identical at every GOMAXPROCS. Across
// machines the contract is per GOARCH (see rxMix).

// LayerRunner applies fused QAOA layers (phase separator + RX mixer) to
// one state. It holds the persistent closures the worker pool dispatch
// needs, so warm Layer calls allocate nothing. A runner is bound to its
// state and is not safe for concurrent use.
type LayerRunner struct {
	s   *State
	amp complex128 // uniform-fill amplitude 1/√dim

	// limit caps the mixer sweep: only RX pairs with q+1 < limit (and,
	// when limit == s.n, the odd final qubit) are applied. Zero means
	// the full register. Sharded states (shard.go) set it to stop the
	// in-shard sweep below the qubits the cross-shard exchange owns.
	limit int
	// clen overrides the chunk length of the low sweep (0: ChunkLen of
	// the state's own dimension). Sharded states pin it to the GLOBAL
	// chunk length so per-chunk phase callbacks see the same ranges at
	// every shard count.
	clen int
	// mirror makes the state a half register (mirror.go): the sweep ends
	// with the mirror butterfly of the qubit the state does not store.
	mirror bool

	// Per-Layer parameters, written before dispatch, read-only during.
	phase func(lo, hi int)
	fill  bool
	rx    rxCoef // mixer butterfly coefficients
	pairQ int    // current cross-chunk pair

	lowBody    func(lo, hi int)
	pairBody   func(rlo, rhi int)
	oneBody    func(rlo, rhi int)
	mirrorBody func(rlo, rhi int)
}

// NewLayerRunner returns a runner bound to s.
func NewLayerRunner(s *State) *LayerRunner {
	r := &LayerRunner{s: s, amp: complex(1/math.Sqrt(float64(len(s.amps))), 0)}
	r.lowBody = r.runLow
	r.pairBody = func(rlo, rhi int) {
		rxQuadRange(r.s.amps, r.pairQ, rlo, rhi, r.rx.cc, r.rx.cm, r.rx.mm)
	}
	r.oneBody = func(lo, hi int) {
		half := len(r.s.amps) >> 1
		rxDuo(r.s.amps[lo:hi], r.s.amps[half+lo:half+hi], r.rx.c, r.rx.s)
	}
	r.mirrorBody = func(rlo, rhi int) {
		mirrorRange(r.s.amps, r.s.n, rlo, rhi, r.rx)
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
	s := r.s
	r.rx = newRXCoef(theta)
	r.phase = phase
	r.fill = fill

	dim := len(s.amps)
	clen := r.clen
	if clen == 0 {
		clen = ChunkLen(dim)
	}
	if clen > dim {
		clen = dim
	}
	limit := r.limit
	if limit == 0 {
		limit = s.n
	}
	nc := dim / clen
	par := s.parallel()

	// Low sweep: fill + phase + all in-chunk pairs while each chunk is
	// cache-resident.
	switch {
	case nc == 1:
		r.runLow(0, dim)
	case !par:
		for c := 0; c < nc; c++ {
			r.runLow(c*clen, (c+1)*clen)
		}
	default:
		dispatchChunks(nc, clen, r.lowBody)
	}

	// Cross-chunk pairs in ascending qubit order, then the last pass: the
	// odd final qubit, or a half register's mirror butterfly with that
	// qubit fused in. With a single chunk everything was in-chunk already.
	cb := bits.TrailingZeros(uint(clen))
	q := cb - 1
	if q%2 != 0 {
		q = cb
	}
	for ; q+1 < limit; q += 2 {
		r.pairQ = q
		runRange(dim>>2, par, r.pairBody)
	}
	if limit == s.n && nc > 1 {
		switch {
		case r.mirror:
			runRange(mirrorReps(s.n), par, r.mirrorBody)
		case s.n%2 == 1:
			runRange(dim>>1, par, r.oneBody)
		}
	}
}

// runLow processes one chunk of the low sweep: fill, phase, every mixer
// pair both of whose qubits address bits inside the chunk, and — when
// the chunk spans the whole register — the last pass: the odd final
// qubit and a half register's mirror butterfly, fused when they fuse.
// Chunk bounds are ChunkLen-aligned, so the representative ranges
// [lo>>2, hi>>2) and [lo>>1, hi>>1) map exactly onto the chunk's
// butterflies.
func (r *LayerRunner) runLow(lo, hi int) {
	s := r.s
	if r.fill {
		amps := s.amps[lo:hi]
		for i := range amps {
			amps[i] = r.amp
		}
	}
	if r.phase != nil {
		r.phase(lo, hi)
	}
	span := hi - lo
	limit := r.limit
	if limit == 0 {
		limit = s.n
	}
	q := 0
	for ; q+1 < limit && 1<<uint(q+1) < span; q += 2 {
		rxQuadRange(s.amps, q, lo>>2, hi>>2, r.rx.cc, r.rx.cm, r.rx.mm)
	}
	if limit != s.n || span != len(s.amps) {
		return
	}
	if s.n%2 == 1 && !(r.mirror && mirrorFused(s.n)) {
		r.oneBody(lo>>1, hi>>1)
	}
	if r.mirror {
		r.mirrorBody(0, mirrorReps(s.n))
	}
}
