package quantum

import "math"

// Half registers.
//
// A state that is invariant under X⊗(n+1) — ψ(z) = ψ(z̄), which every
// QAOA state of a Hamiltonian without linear terms is, from |+⟩ on —
// stores each amplitude twice. A half register keeps one copy: the n-
// qubit state φ(z) = √2·ψ(z) over the indices whose dropped top bit is
// clear, z < M = 2^n. φ has unit norm, the uniform state is 1/√M, and a
// diagonal operator or reduction whose diagonal has the same symmetry
// reads over [0, M) exactly what it reads over the full register (the
// two halves contribute equally, and √2² restores the factor). RX on
// qubits 0…n−1 never leaves the half. Only RX on the dropped qubit
// reaches across: its partner of z is z+M, whose amplitude is that of
// the complement M−1−z inside the half. So the whole mixer is the
// n-qubit sweep plus one mirror butterfly pairing i with M−1−i — rxDuo
// on a reversed partner — and the dropped qubit's ΣX term is sumXDuo on
// the same pairs.
//
// When n is odd the sweep already ends with a lone butterfly, the odd
// final qubit T = M/2 pairing i with i+T. The two fuse into one
// quadruple pass over i < T/2 on {i, i+T, M−1−i, T−1−i}: T flips i ↔
// i+T and T−1−i ↔ M−1−i, the mirror flips i ↔ M−1−i and i+T ↔ T−1−i —
// rxQuad with the last two slices reversed. At n = 1 the mirror partner
// IS the RX partner (both pair 0 with 1), the four indices collapse to
// two and nothing fuses: qubit 0's rxDuo and the mirror's run one after
// the other on the same pair.
//
// The pass is added once to each sweep — LayerRunner.Layer and
// ReverseMixer.Sweep — as the last pass, in place of the odd final
// qubit's. A half register is a property of the sweep (SetMirror on
// either), not of the buffer: a State of n qubits serves full n-qubit
// and half (n+1)-qubit evolutions alike.

// mirrorFused reports whether an n-qubit half register's mirror
// butterfly fuses with its odd final qubit into one quadruple pass.
func mirrorFused(n int) bool { return n%2 == 1 && n >= 3 }

// mirrorShift returns log2 of the mirror pass's group size on an
// n-qubit half register: quadruples when fused, pairs otherwise.
func mirrorShift(n int) uint {
	if mirrorFused(n) {
		return 2
	}
	return 1
}

// mirrorReps returns how many groups — representatives, the lowest
// index of each — the mirror pass of an n-qubit half register has.
func mirrorReps(n int) int { return 1 << (uint(n) - mirrorShift(n)) }

// mirrorRange applies the mirror pass of the half register amps to
// representatives [rlo, rhi).
func mirrorRange(amps []complex128, n, rlo, rhi int, k rxCoef) {
	m := len(amps)
	if mirrorFused(n) {
		t := m >> 1
		rxQuadMirror(amps[rlo:rhi], amps[t+rlo:t+rhi], amps[m-rhi:m-rlo], amps[t-rhi:t-rlo], k.cc, k.cm, k.mm)
		return
	}
	rxDuoMirror(amps[rlo:rhi], amps[m-rhi:m-rlo], k.c, k.s)
}

// rxDuoMirror is rxDuo on a reversed partner: pair k is (p0[k],
// p1[len−1−k]). The loop condition keeps both the ascending and the
// descending index in range, so the body carries no bounds check.
func rxDuoMirror(p0, p1 []complex128, c, s float64) {
	n := len(p0)
	p1 = p1[:n]
	for k, j := 0, n-1; k < n && uint(j) < uint(n); k, j = k+1, j-1 {
		x, y := p0[k], p1[j]
		p0[k] = complex(c*real(x)+s*imag(y), c*imag(x)-s*real(y))
		p1[j] = complex(c*real(y)+s*imag(x), c*imag(y)-s*real(x))
	}
}

// rxQuadMirror is rxQuad with the second target's two partners
// reversed: quadruple k is (p00[k], p01[k], p10[len−1−k],
// p11[len−1−k]). Like rxQuad, it runs an even number of leading
// quadruples in assembly where it can.
func rxQuadMirror(p00, p01, p10, p11 []complex128, cc, cm, mm float64) {
	n := len(p00)
	p01, p10, p11 = p01[:n], p10[:n], p11[:n]
	if k := rxQuadMirrorVec(p00, p01, p10, p11, cc, cm, mm); k < n {
		rxQuadMirrorGo(p00[k:], p01[k:], p10[:n-k], p11[:n-k], cc, cm, mm)
	}
}

// rxQuadMirrorGo is rxQuadMirror's portable body (see rxQuadGo).
func rxQuadMirrorGo(p00, p01, p10, p11 []complex128, cc, cm, mm float64) {
	n := len(p00)
	p01, p10, p11 = p01[:n], p10[:n], p11[:n]
	for k, j := 0, n-1; k < n && uint(j) < uint(n); k, j = k+1, j-1 {
		a00, a01, a10, a11 := p00[k], p01[k], p10[j], p11[j]
		t, u := a01+a10, a00+a11
		p00[k] = rxMix(a00, t, a11, cc, cm, mm)
		p01[k] = rxMix(a01, u, a10, cc, cm, mm)
		p10[j] = rxMix(a10, u, a01, cc, cm, mm)
		p11[j] = rxMix(a11, t, a00, cc, cm, mm)
	}
}

// sumXDuoMirror is sumXDuo on the pairs of rxDuoMirror.
func sumXDuoMirror(p0, p1, l0, l1 []complex128) (im float64) {
	n := len(p0)
	p1, l0, l1 = p1[:n], l0[:n], l1[:n]
	for k, j := 0, n-1; k < n && uint(j) < uint(n); k, j = k+1, j-1 {
		im += imConjMul(l0[k], p1[j]) + imConjMul(l1[j], p0[k])
	}
	return im
}

// sumXQuadMirror is sumXQuad on the quadruples of rxQuadMirror.
func sumXQuadMirror(p00, p01, p10, p11, l00, l01, l10, l11 []complex128) (im float64) {
	n := len(p00)
	p01, p10, p11 = p01[:n], p10[:n], p11[:n]
	l00, l01, l10, l11 = l00[:n], l01[:n], l10[:n], l11[:n]
	for k, j := 0, n-1; k < n && uint(j) < uint(n); k, j = k+1, j-1 {
		t, u := p01[k]+p10[j], p00[k]+p11[j]
		lt, lu := l01[k]+l10[j], l00[k]+l11[j]
		im += imConjMul(lu, t) + imConjMul(lt, u)
	}
	return im
}

// revQuadMirror is revQuad for the fused mirror pass: sub-run [o, e) of
// the ascending slices meets [len−e, len−o) of the reversed ones.
func revQuadMirror(p00, p01, p10, p11, l00, l01, l10, l11 []complex128, k rxCoef) (im float64) {
	n := len(p00)
	p01, p10, p11 = p01[:n], p10[:n], p11[:n]
	l00, l01, l10, l11 = l00[:n], l01[:n], l10[:n], l11[:n]
	for o := 0; o < n; o += revSubQuads {
		e := min(o+revSubQuads, n)
		ro, re := n-e, n-o
		if s, ok := revQuadMirrorVec(p00[o:e], p01[o:e], p10[ro:re], p11[ro:re], l00[o:e], l01[o:e], l10[ro:re], l11[ro:re], k); ok {
			im += s
			continue
		}
		im += sumXQuadMirror(p00[o:e], p01[o:e], p10[ro:re], p11[ro:re], l00[o:e], l01[o:e], l10[ro:re], l11[ro:re])
		rxQuadMirror(p00[o:e], p01[o:e], p10[ro:re], p11[ro:re], k.cc, k.cm, k.mm)
		rxQuadMirror(l00[o:e], l01[o:e], l10[ro:re], l11[ro:re], k.cc, k.cm, k.mm)
	}
	return im
}

// revDuoMirror is revDuo for the unfused mirror pass.
func revDuoMirror(p0, p1, l0, l1 []complex128, k rxCoef) (im float64) {
	n := len(p0)
	for o := 0; o < n; o += 2 * revSubQuads {
		e := min(o+2*revSubQuads, n)
		ro, re := n-e, n-o
		im += sumXDuoMirror(p0[o:e], p1[ro:re], l0[o:e], l1[ro:re])
		rxDuoMirror(p0[o:e], p1[ro:re], k.c, k.s)
		rxDuoMirror(l0[o:e], l1[ro:re], k.c, k.s)
	}
	return im
}

// UnfoldMirror returns the (n+1)-qubit state whose half register s is:
// ψ(z) = ψ(z̄) = s(z)/√2 for z < 2^n.
func (s *State) UnfoldMirror() *State {
	full := NewState(s.n + 1)
	top := len(full.amps) - 1
	for z, a := range s.amps {
		a = complex(real(a)/math.Sqrt2, imag(a)/math.Sqrt2)
		full.amps[z], full.amps[top-z] = a, a
	}
	return full
}
