package quantum

// Two-state reverse mixer sweep.
//
// An adjoint reverse stage needs two things from the mixer: the matrix
// element Im⟨λ|Σ_q X_q|φ⟩ (∂E/∂β is twice it) and RX(−2β) un-applied
// from both states. Every X_q commutes with every RX, so the terms of
// qubits q and q+1 may be read at any point of the un-apply, provided φ
// and λ have had the same butterflies applied — and the cheapest point
// is the moment that pair's butterfly loads the quadruple anyway. There
// the two terms collapse onto sums rxQuad forms itself: with t = a01+a10
// and u = a00+a11 of each state,
//
//	⟨λ|X_q+X_{q+1}|φ⟩ over one quadruple = conj(u_λ)·t_φ + conj(t_λ)·u_φ,
//
// eight multiplications next to the 88 flops of the two butterflies.
// The sweep therefore walks both states once, pair pass by pair pass in
// LayerRunner.Layer's order and sub-run by sub-run within a pass. What
// is fused where:
//
//   - On amd64 with AVX2 a sub-run of quadruples is one assembly body
//     (revQuadAVX2, revQuadLowAVX2, revQuadMirrorAVX2 in rx_amd64.s, or
//     their AVX-512 forms for a sub-run of whole groups of four). Per
//     two quadruples (four) it loads φ's, keeps t and u, butterflies and
//     stores them; loads λ's, multiplies its sums into φ's for the two
//     terms, adds them to the fold with scalar adds, quadruple k before
//     k+1; butterflies and stores λ's. Every slice is read once and written
//     once, and the fold's dependent add waits in the shadow of the
//     butterflies' arithmetic. An in-chunk pair whose runs are no longer
//     than a sub-run — (2,3), (4,5), (6,7) — is one call per chunk: the
//     body steps from run to run itself.
//   - Everywhere else — other GOARCHs, a CPU without AVX2, a sub-run of
//     odd length, and the lone butterflies revDuo and revDuoMirror — a
//     sub-run is three loops: the ΣX terms (sumX*), then rxQuad/rxDuo on
//     φ and on λ. The sub-run is L1-sized so that the second and third
//     find it there. (The Go compiler is why these are three: one Go
//     loop body carrying all 16 amplitudes of a quadruple pair spills
//     registers and runs 1.5× slower per state than rxQuad. The assembly
//     fits a quadruple pair of one state, the other's sums, the fold and
//     the coefficients in the 16 YMM registers.) Where the CPU has AVX2
//     the butterfly loops are still assembly — the lone butterflies'
//     rxDuo and rxDuoMirror bodies, rxQuad's even prefix — so of a lone
//     pass only the ΣX terms are scalar.
//
// Either way the butterflies are the forward sweep's operation for
// operation, so both states come out bit-identical to two Layer(theta,
// false, nil) calls; and the terms — MUL, MUL, SUB twice, one ADD — and
// their fold are the ones defined next, so the returned value does not
// say which body ran (rx_amd64_test.go compares them by Float64bits).
//
// Summation order — the same for every body, and unchanged by the
// assembly: only the terms are computed in lanes, the fold is scalar.
// The returned value is defined once, for every layout and worker count,
// as nested left-to-right folds from zero:
//
//	quadruples of a sub-run (≤ revSubQuads, ascending)
//	→ sub-runs of a run → runs of a pair → pairs of a block (the low
//	  pass un-applies every in-chunk pair of chunk c, and a single-chunk
//	  register's last pass, into block c)
//	→ blocks of a pass: every pass has dim/ChunkLen(dim) blocks, block c
//	  being chunk c's representatives — ChunkLen/4 quadruples, or
//	  ChunkLen/2 pairs for a lone butterfly
//	→ passes: low, cross-chunk pairs ascending, last pass.
//
// The last pass is the odd final qubit's on a full register. On a half
// register (mirror.go) it is the mirror butterfly's, whose ΣX term is
// the dropped qubit's share of the matrix element: quadruples {i, i+T,
// M−1−i, T−1−i} with the odd final qubit fused in when the width is odd
// and at least 3, pairs (i, M−1−i) otherwise — and at width 1 qubit 0's
// pair first, then the mirror's. Its groups are taken in ascending
// order of their lowest index i, sub-run by sub-run and block by block
// like every other pass.
//
// Blocks are a function of the dimension alone, and every pass is one
// ReduceChunks walk over them (passWalk in fused.go, the forward's pass
// sequence too), so the value is the same at every GOMAXPROCS, bit for
// bit.

// revSubQuads is the sub-run length: 128 quadruples are 8 KiB per
// state, so the ΣX read and the two butterflies that follow it find
// both states' sub-runs in L1.
const revSubQuads = 128

// ReverseMixer un-applies the RX mixer from a ket |φ⟩ and an adjoint λ
// in lockstep and reads Im⟨λ|ΣX|φ⟩ off on the way (see the file
// comment). It holds the reduction closures the chunk dispatch needs,
// so warm Sweep calls allocate nothing. A ReverseMixer is bound to its
// two states and is not safe for concurrent use.
type ReverseMixer struct {
	passWalk
	phi, lam []complex128
}

// NewReverseMixer returns a sweep over two states of equal width, full
// registers until SetMirror says otherwise.
func NewReverseMixer(phi, lam *State) *ReverseMixer {
	if phi.n != lam.n {
		panic("quantum: width mismatch in NewReverseMixer")
	}
	m := &ReverseMixer{passWalk: newPassWalk(phi), phi: phi.amps, lam: lam.amps}
	m.lowBody, m.pairBody, m.oneBody, m.mirrorBody = m.low, m.pair, m.one, m.mirrorBlock
	return m
}

// SetMirror makes the sweep treat both states as half registers
// (mirror.go) or, with false, as full registers again.
func (m *ReverseMixer) SetMirror(on bool) { m.mirror = on }

// Sweep applies RX(theta) to every qubit of both states — amplitudes
// bit-identical to LayerRunner.Layer(theta, false, nil) on each — and
// returns Im⟨λ|Σ_q X_q|φ⟩ in the file comment's summation order, the
// sum running over a half register's dropped qubit too. The value does
// not depend on theta: it is the matrix element between the states as
// they were on entry (and, ΣX commuting with the mixer, as they are on
// return).
func (m *ReverseMixer) Sweep(theta float64) float64 {
	return m.run(theta)
}

// low is one block of the low pass: chunk [lo, hi) of both states has
// every in-chunk pair un-applied, and — when the chunk spans the whole
// register — the last pass, exactly as LayerRunner.runLow.
func (m *ReverseMixer) low(lo, hi int) (im float64) {
	span := hi - lo
	p, l := m.phi[lo:hi], m.lam[lo:hi]
	q := 0
	for ; q+1 < m.n && 1<<uint(q+1) < span; q += 2 {
		im += revQuadChunk(p, l, q, m.rx)
	}
	if span != m.dim {
		return im
	}
	if m.n%2 == 1 && !(m.mirror && mirrorFused(m.n)) {
		half := span >> 1
		im += revDuo(p[:half], p[half:], l[:half], l[half:], m.rx)
	}
	if m.mirror {
		im += m.revMirror(0, mirrorReps(m.n))
	}
	return im
}

// pair is one block of a cross-chunk pair pass: the quadruples of pair
// (q, q+1) whose representatives are chunk [lo, hi)'s, [lo/4, hi/4).
// 2^q is at least half a chunk, so the block is a single run: four
// contiguous spans per state.
func (m *ReverseMixer) pair(lo, hi int) float64 {
	bit0 := 1 << uint(m.q)
	bit1 := bit0 << 1
	mask := bit0 - 1
	r, n := lo>>2, (hi-lo)>>2
	i := ((r &^ mask) << 2) | (r & mask)
	p, l := m.phi[i:], m.lam[i:]
	return revQuad(
		p[:n], p[bit0:bit0+n], p[bit1:bit1+n], p[bit0+bit1:bit0+bit1+n],
		l[:n], l[bit0:bit0+n], l[bit1:bit1+n], l[bit0+bit1:bit0+bit1+n],
		m.rx)
}

// one is one block of the odd final qubit's pass on a multi-chunk
// register: pairs [lo/2, hi/2), equal offsets of the two halves.
func (m *ReverseMixer) one(lo, hi int) float64 {
	i, n, half := lo>>1, (hi-lo)>>1, m.dim>>1
	return revDuo(m.phi[i:i+n], m.phi[half+i:half+i+n], m.lam[i:i+n], m.lam[half+i:half+i+n], m.rx)
}

// mirrorBlock is one block of a half register's mirror pass on a
// multi-chunk register: the groups whose representatives are chunk
// [lo, hi)'s, [lo/4, hi/4) when the odd final qubit fuses in and
// [lo/2, hi/2) otherwise.
func (m *ReverseMixer) mirrorBlock(lo, hi int) float64 {
	sh := mirrorShift(m.n)
	return m.revMirror(lo>>sh, hi>>sh)
}

// revMirror un-applies the mirror pass for representatives [rlo, rhi)
// from both states and returns their ΣX terms: mirrorRange on two
// states.
func (m *ReverseMixer) revMirror(rlo, rhi int) float64 {
	p, l, d := m.phi, m.lam, m.dim
	if mirrorFused(m.n) {
		t := d >> 1
		return revQuadMirror(
			p[rlo:rhi], p[t+rlo:t+rhi], p[d-rhi:d-rlo], p[t-rhi:t-rlo],
			l[rlo:rhi], l[t+rlo:t+rhi], l[d-rhi:d-rlo], l[t-rhi:t-rlo],
			m.rx)
	}
	return revDuoMirror(p[rlo:rhi], p[d-rhi:d-rlo], l[rlo:rhi], l[d-rhi:d-rlo], m.rx)
}

// revQuadChunk un-applies the in-chunk pair (q, q+1) from one chunk of
// both states — rxQuadRange's walk over all of the chunk's
// representatives, runs of 2^q quadruples — and returns the pair's ΣX
// terms, run by run. Runs no longer than a sub-run are the fold's units
// themselves, and the assembly walks all of them in one call.
func revQuadChunk(p, l []complex128, q int, k rxCoef) (im float64) {
	if q == 0 {
		return revQuadLow(p, l, k)
	}
	l = l[:len(p)]
	bit0 := 1 << uint(q)
	bit1 := bit0 << 1
	if bit0 <= revSubQuads {
		if s, ok := revQuadRunsVec(p, l, bit0, k); ok {
			return s
		}
	}
	for i := 0; i < len(p); i += bit0 << 2 {
		im += revQuad(
			p[i:i+bit0], p[i+bit0:i+bit1], p[i+bit1:i+bit1+bit0], p[i+bit1+bit0:i+bit1<<1],
			l[i:i+bit0], l[i+bit0:i+bit1], l[i+bit1:i+bit1+bit0], l[i+bit1+bit0:i+bit1<<1],
			k)
	}
	return im
}

// revQuad un-applies one run of quadruples from both states, sub-run
// by sub-run, and returns its ΣX terms: in one fused assembly body
// where there is one (rx_amd64.go), else the terms first, then rxQuad on
// φ's and on λ's four slices. All eight slices are equal-length.
func revQuad(p00, p01, p10, p11, l00, l01, l10, l11 []complex128, k rxCoef) (im float64) {
	n := len(p00)
	p01, p10, p11 = p01[:n], p10[:n], p11[:n]
	l00, l01, l10, l11 = l00[:n], l01[:n], l10[:n], l11[:n]
	for o := 0; o < n; o += revSubQuads {
		e := min(o+revSubQuads, n)
		if s, ok := revQuadVec(p00[o:e], p01[o:e], p10[o:e], p11[o:e], l00[o:e], l01[o:e], l10[o:e], l11[o:e], k); ok {
			im += s
			continue
		}
		im += sumXQuad(p00[o:e], p01[o:e], p10[o:e], p11[o:e], l00[o:e], l01[o:e], l10[o:e], l11[o:e])
		rxQuad(p00[o:e], p01[o:e], p10[o:e], p11[o:e], k.cc, k.cm, k.mm)
		rxQuad(l00[o:e], l01[o:e], l10[o:e], l11[o:e], k.cc, k.cm, k.mm)
	}
	return im
}

// revQuadLow is revQuad for qubits 0 and 1, whose quadruples are the
// consecutive 4-amplitude groups of p and l.
func revQuadLow(p, l []complex128, k rxCoef) (im float64) {
	l = l[:len(p)]
	for o := 0; o < len(p); o += 4 * revSubQuads {
		e := min(o+4*revSubQuads, len(p))
		if s, ok := revQuadLowVec(p[o:e], l[o:e], k); ok {
			im += s
			continue
		}
		im += sumXQuadLow(p[o:e], l[o:e])
		rxQuadLow(p[o:e], k.cc, k.cm, k.mm)
		rxQuadLow(l[o:e], k.cc, k.cm, k.mm)
	}
	return im
}

// revDuo is revQuad for the single-qubit butterfly of the odd final
// qubit: p0/l0 hold the pairs' amplitudes with the bit clear, p1/l1
// with it set.
func revDuo(p0, p1, l0, l1 []complex128, k rxCoef) (im float64) {
	for o := 0; o < len(p0); o += 2 * revSubQuads {
		e := min(o+2*revSubQuads, len(p0))
		im += sumXDuo(p0[o:e], p1[o:e], l0[o:e], l1[o:e])
		rxDuo(p0[o:e], p1[o:e], k.c, k.s)
		rxDuo(l0[o:e], l1[o:e], k.c, k.s)
	}
	return im
}

// imConjMul returns Im(conj(a)·b).
func imConjMul(a, b complex128) float64 {
	return real(a)*imag(b) - imag(a)*real(b)
}

// sumXQuad returns Σ_k Im(conj(u_λ)·t_φ + conj(t_λ)·u_φ) over the
// quadruples (p00[k], p01[k], p10[k], p11[k]) of φ and their λ
// counterparts: Im⟨λ|X_q+X_{q+1}|φ⟩ restricted to them.
func sumXQuad(p00, p01, p10, p11, l00, l01, l10, l11 []complex128) (im float64) {
	p01, p10, p11 = p01[:len(p00)], p10[:len(p00)], p11[:len(p00)]
	l00, l01, l10, l11 = l00[:len(p00)], l01[:len(p00)], l10[:len(p00)], l11[:len(p00)]
	for k, a00 := range p00 {
		t, u := p01[k]+p10[k], a00+p11[k]
		lt, lu := l01[k]+l10[k], l00[k]+l11[k]
		im += imConjMul(lu, t) + imConjMul(lt, u)
	}
	return im
}

// sumXQuadLow is sumXQuad for consecutive 4-amplitude groups.
func sumXQuadLow(p, l []complex128) (im float64) {
	for ; len(p) >= 4 && len(l) >= 4; p, l = p[4:], l[4:] {
		t, u := p[1]+p[2], p[0]+p[3]
		lt, lu := l[1]+l[2], l[0]+l[3]
		im += imConjMul(lu, t) + imConjMul(lt, u)
	}
	return im
}

// sumXDuo returns Σ_k Im(conj(l0[k])·p1[k] + conj(l1[k])·p0[k]):
// Im⟨λ|X_q|φ⟩ over the pairs of one qubit.
func sumXDuo(p0, p1, l0, l1 []complex128) (im float64) {
	p1, l0, l1 = p1[:len(p0)], l0[:len(p0)], l1[:len(p0)]
	for k, x := range p0 {
		im += imConjMul(l0[k], p1[k]) + imConjMul(l1[k], x)
	}
	return im
}
