package quantum

import (
	"math"
	"runtime"
)

// This file holds the fused, allocation-free kernels the QAOA hot path
// is built from. The gate methods in state.go are the readable
// reference semantics; these kernels compute identical amplitudes (to
// floating-point rounding) with fewer passes over the state vector and
// no per-call heap allocation. Large registers (ParallelDim amplitudes
// and up) run element-wise kernels on parallel chunks; writes are
// disjoint and each amplitude's new value depends only on old values,
// so results are bit-identical to a serial pass at every GOMAXPROCS.

// NewUniformState returns the uniform superposition H^⊗n|0…0⟩, the
// starting state of every QAOA circuit, without applying n Hadamard
// passes.
func NewUniformState(n int) *State {
	s := NewState(n)
	s.FillUniform()
	return s
}

// FillUniform overwrites s with the uniform superposition (amplitude
// 1/√2^n everywhere). It is the in-place reset used by evaluation
// workspaces between objective calls.
func (s *State) FillUniform() {
	amp := complex(1/math.Sqrt(float64(len(s.amps))), 0)
	if s.parallel() {
		runRange(len(s.amps), true, func(lo, hi int) {
			amps := s.amps[lo:hi]
			for i := range amps {
				amps[i] = amp
			}
		})
		return
	}
	for i := range s.amps {
		s.amps[i] = amp
	}
}

// parallel reports whether element-wise kernels on this state should
// fan out across the worker pool. Parallel and serial passes are
// bit-identical; this only gates scheduling. Shard-local states are
// pinned serial: their owning shard worker IS the parallelism.
func (s *State) parallel() bool {
	return !s.serial && len(s.amps) >= ParallelDim && runtime.GOMAXPROCS(0) > 1
}

// rxCoef holds the real coefficients of the RX(θ) butterflies. One
// qubit's RX is c·I + ms·X with c = cos θ/2 purely real and ms =
// −i·sin θ/2 purely imaginary, so the fused two-qubit kernel (c·I +
// ms·X)⊗(c·I + ms·X) has coefficients c² (real), c·ms (imaginary) and
// ms² (real). The kernels below multiply components by these reals
// instead of forming complex products whose other half is an exact
// zero.
type rxCoef struct {
	c, s       float64 // cos θ/2, sin θ/2
	cc, cm, mm float64 // c², Im(c·ms) = −c·s, ms² = −s²
}

func newRXCoef(theta float64) rxCoef {
	s, c := math.Sincos(theta / 2)
	return rxCoef{c: c, s: s, cc: c * c, cm: -(c * s), mm: -(s * s)}
}

// RXAll applies RX(θ) to every qubit — the QAOA mixing layer
// exp(−i(θ/2)ΣXi) — walking the amplitude array once per fused qubit
// pair instead of once per qubit. The amplitudes match n sequential
// RX(q, θ) calls to rounding error. Large registers split each pass's
// representative set across workers; the per-amplitude arithmetic is
// identical, so the result matches the serial pass bit-for-bit.
func (s *State) RXAll(theta float64) {
	k := newRXCoef(theta)
	q := 0
	for ; q+1 < s.n; q += 2 {
		s.rxPair(q, k)
	}
	if q < s.n {
		s.rxLast(k)
	}
}

// rxPair applies the fused RX butterfly to qubits q and q+1 in a single
// pass: a 4×4 kernel touching each amplitude once where two RX calls
// would touch it twice.
func (s *State) rxPair(q int, k rxCoef) {
	if s.parallel() {
		runRange(len(s.amps)>>2, true, func(rlo, rhi int) {
			rxQuadRange(s.amps, q, rlo, rhi, k.cc, k.cm, k.mm)
		})
		return
	}
	rxQuadRange(s.amps, q, 0, len(s.amps)>>2, k.cc, k.cm, k.mm)
}

// rxLast applies RX to the top qubit, the one an odd register width
// leaves unpaired: its pairs are equal offsets of the two array halves.
func (s *State) rxLast(k rxCoef) {
	half := len(s.amps) >> 1
	if s.parallel() {
		runRange(half, true, func(lo, hi int) {
			rxDuo(s.amps[lo:hi], s.amps[half+lo:half+hi], k.c, k.s)
		})
		return
	}
	rxDuo(s.amps[:half], s.amps[half:], k.c, k.s)
}

// rxQuadRange applies the fused RX butterfly on qubits q and q+1 for
// representatives r ∈ [rlo, rhi). Representative r maps to the
// amplitude index with the bits of qubits q and q+1 cleared: i = ((r &^
// (bit0−1)) << 2) | (r & (bit0−1)); ascending r visits the same (base,
// offset) pairs as the classic base-stride loop, in the same order.
// Each run of consecutive representatives is four equal-length
// contiguous sub-slices, handed to rxQuad — or, when the range is whole
// runs, all of them to the assembly in one call; for q = 0 the whole
// range is one contiguous block of 4-amplitude groups.
func rxQuadRange(amps []complex128, q, rlo, rhi int, cc, cm, mm float64) {
	if q == 0 {
		rxQuadLow(amps[rlo<<2:rhi<<2], cc, cm, mm)
		return
	}
	bit0 := 1 << uint(q)
	bit1 := bit0 << 1
	mask := bit0 - 1
	if (rlo|rhi)&mask == 0 && rxQuadRunsVec(amps[rlo<<2:rhi<<2], bit0, cc, cm, mm) {
		return
	}
	for r := rlo; r < rhi; {
		i := ((r &^ mask) << 2) | (r & mask)
		run := min(bit0-(r&mask), rhi-r)
		rxQuad(amps[i:i+run], amps[i+bit0:i+bit0+run], amps[i+bit1:i+bit1+run], amps[i+bit0+bit1:i+bit0+bit1+run], cc, cm, mm)
		r += run
	}
}

// rxMix returns cc·a + i·cm·t + mm·b — one output of the fused
// two-qubit RX butterfly — in real arithmetic on the components, in
// the association order of the complex expression cc*a + cm*t + mm*b
// with cc, mm real and cm imaginary. The terms this drops are (±0)·x
// added to a finite value, so the result is the complex expression's
// except possibly in the sign of an exact zero. Bit-identity is per
// GOARCH: the compiler fuses x*y+z on arm64, ppc64le and s390x, and on
// amd64 at no GOAMD64 level (go1.22–1.24 lower only an explicit
// math.FMA there), which is what lets rx_amd64.s be == to this on
// every amd64 build.
func rxMix(a, t, b complex128, cc, cm, mm float64) complex128 {
	return complex(cc*real(a)-cm*imag(t)+mm*real(b), cc*imag(a)+cm*real(t)+mm*imag(b))
}

// rxQuad applies the fused two-qubit RX butterfly to every quadruple
// (p00[k], p01[k], p10[k], p11[k]): the amplitudes whose two target
// bits read 00, 01, 10 and 11. The four slices are equal-length and
// disjoint — runs of one state, or equal local ranges of four shards.
// Where the CPU has AVX2 the even-length prefix runs in assembly
// (rx_amd64.go); rxQuadGo does the rest, to the same bits.
func rxQuad(p00, p01, p10, p11 []complex128, cc, cm, mm float64) {
	p01, p10, p11 = p01[:len(p00)], p10[:len(p00)], p11[:len(p00)]
	if k := rxQuadVec(p00, p01, p10, p11, cc, cm, mm); k < len(p00) {
		rxQuadGo(p00[k:], p01[k:], p10[k:], p11[k:], cc, cm, mm)
	}
}

// rxQuadGo is rxQuad's portable body: the only one off amd64 and before
// AVX2, the odd tail, and the oracle the assembly is tested against.
func rxQuadGo(p00, p01, p10, p11 []complex128, cc, cm, mm float64) {
	p01, p10, p11 = p01[:len(p00)], p10[:len(p00)], p11[:len(p00)]
	for k, a00 := range p00 {
		a01, a10, a11 := p01[k], p10[k], p11[k]
		t, u := a01+a10, a00+a11
		p00[k] = rxMix(a00, t, a11, cc, cm, mm)
		p01[k] = rxMix(a01, u, a10, cc, cm, mm)
		p10[k] = rxMix(a10, u, a01, cc, cm, mm)
		p11[k] = rxMix(a11, t, a00, cc, cm, mm)
	}
}

// rxQuadLow is rxQuad for qubits 0 and 1, whose quadruples are the
// consecutive 4-amplitude groups of a.
func rxQuadLow(a []complex128, cc, cm, mm float64) {
	if k := rxQuadLowVec(a, cc, cm, mm); k < len(a) {
		rxQuadLowGo(a[k:], cc, cm, mm)
	}
}

// rxQuadLowGo is rxQuadLow's portable body (see rxQuadGo).
func rxQuadLowGo(a []complex128, cc, cm, mm float64) {
	for ; len(a) >= 4; a = a[4:] {
		a00, a01, a10, a11 := a[0], a[1], a[2], a[3]
		t, u := a01+a10, a00+a11
		a[0] = rxMix(a00, t, a11, cc, cm, mm)
		a[1] = rxMix(a01, u, a10, cc, cm, mm)
		a[2] = rxMix(a10, u, a01, cc, cm, mm)
		a[3] = rxMix(a11, t, a00, cc, cm, mm)
	}
}

// rxDuo applies the single-qubit RX butterfly c·I − i·s·X to every
// pair (p0[k], p1[k]) — the target bit clear and set — in real
// arithmetic on the components (see rxMix for why that equals the
// complex 2×2 product). The slices are equal-length and disjoint.
func rxDuo(p0, p1 []complex128, c, s float64) {
	p1 = p1[:len(p0)]
	for k, x := range p0 {
		y := p1[k]
		p0[k] = complex(c*real(x)+s*imag(y), c*imag(x)-s*real(y))
		p1[k] = complex(c*real(y)+s*imag(x), c*imag(y)-s*real(x))
	}
}

// mulIndexedRange multiplies amps[i] by factors[idx[i]]. Where the CPU
// has AVX2 the even-length prefix runs in assembly (rx_amd64.go) up to a
// pair with an index outside factors; mulIndexedGo does the rest, to the
// same bits, and panics at such an index.
func mulIndexedRange(amps []complex128, idx []int32, factors []complex128) {
	amps = amps[:len(idx)]
	if k := mulIndexedVec(amps, idx, factors); k < len(idx) {
		mulIndexedGo(amps[k:], idx[k:], factors)
	}
}

// mulIndexedGo is mulIndexedRange's portable body: the only one off
// amd64 and before AVX2, the odd tail, the bounds check and the oracle
// the assembly is tested against.
func mulIndexedGo(amps []complex128, idx []int32, factors []complex128) {
	amps = amps[:len(idx)]
	for i, k := range idx {
		amps[i] *= factors[k]
	}
}

// PhaseFactors fills factors[j] = e^{±iγ·gens[j]} (minus when conj) with
// the bits of math.Sincos(γ·gens[j]): a QAOA stage's rotations, one per
// distinct phase-generator value of an index-table phase separator, or
// one per in-chunk coupling for a float one that builds its chunk phases
// from them. Where the CPU has AVX2 it runs math.Sincos's algorithm four
// angles wide in assembly (rx_amd64.go); a group of four holding a
// non-finite angle or one of magnitude 2²⁹ or more, and a table shorter
// than four, take phaseFactorsGo.
func PhaseFactors(factors []complex128, gens []float64, gamma float64, conj bool) {
	sign := 1.0
	if conj {
		sign = -1
	}
	factors = factors[:len(gens)]
	for len(gens) > 0 {
		k, n := phaseFactorsVec(factors, gens, gamma, sign)
		phaseFactorsGo(factors[k:n], gens[k:n], gamma, sign)
		factors, gens = factors[n:], gens[n:]
	}
}

// phaseFactorsGo is PhaseFactors' portable body (see mulIndexedGo).
func phaseFactorsGo(factors []complex128, gens []float64, gamma, sign float64) {
	factors = factors[:len(gens)]
	for j, h := range gens {
		sin, cos := math.Sincos(gamma * h)
		factors[j] = complex(cos, sign*sin)
	}
}

// applyPhaseRange multiplies amps[i] by e^{i·phases[i]} over one chunk.
func applyPhaseRange(amps []complex128, phases []float64) {
	for i, ph := range phases {
		sin, cos := math.Sincos(ph)
		amps[i] *= complex(cos, sin)
	}
}
