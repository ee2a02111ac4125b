package quantum

// AVX2 dispatch for the eleven assembly bodies: the three quadruple
// butterflies, their two-state forms and the two lone butterflies
// (rx_amd64.s), and the phase separator's factor table, indexed multiply
// and element-wise multiply (phase_amd64.s). rxQuad, rxQuadLow,
// rxQuadMirror, rxDuo, rxDuoMirror, the reverse sweep, PhaseFactors,
// mulIndexedRange and Mul hand them the part of their input that fills
// whole YMM registers and finish the rest in Go. The choice is made once,
// from the CPU alone.

// useAVX2 reports whether the CPU and the OS support AVX2.
var useAVX2 = detectAVX2()

// detectAVX2 asks CPUID for AVX2 (leaf 7, EBX bit 5) and checks that the
// OS saves the YMM state: OSXSAVE and AVX (leaf 1, ECX bits 27 and 28),
// then XCR0 bits 1 and 2.
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsaveAVX = 1<<27 | 1<<28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsaveAVX != osxsaveAVX {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func rxQuadAVX2(p00, p01, p10, p11 *complex128, run, runs int, cc, cm, mm float64)

//go:noescape
func rxQuadMirrorAVX2(p00, p01, p10, p11 *complex128, n int, cc, cm, mm float64)

//go:noescape
func rxQuadLowAVX2(a *complex128, quads int, cc, cm, mm float64)

//go:noescape
func revQuadAVX2(p00, p01, p10, p11, l00, l01, l10, l11 *complex128, run, runs int, cc, cm, mm float64) float64

//go:noescape
func revQuadMirrorAVX2(p00, p01, p10, p11, l00, l01, l10, l11 *complex128, n int, cc, cm, mm float64) float64

//go:noescape
func revQuadLowAVX2(p, l *complex128, quads int, cc, cm, mm float64) float64

//go:noescape
func rxDuoAVX2(p0, p1 *complex128, n int, c, s float64)

//go:noescape
func rxDuoMirrorAVX2(p0, p1 *complex128, n int, c, s float64)

//go:noescape
func phaseFactorsAVX2(factors *complex128, gens *float64, n int, gamma, sign float64) int

//go:noescape
func mulIndexedAVX2(amps *complex128, idx *int32, n int, factors *complex128, nf int) int

//go:noescape
func mulAVX2(dst, a, b *complex128, n int, bcast bool)

// Kernel names the bodies the mixer butterflies and the phase separator
// run: "avx2" for the assembly, "go" for the portable bodies. Both return
// the same bits.
func Kernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// rxQuadVec applies rxQuad's butterfly to the even-length prefix of four
// equal-length runs in assembly and returns that prefix's length.
func rxQuadVec(p00, p01, p10, p11 []complex128, cc, cm, mm float64) int {
	if !useAVX2 || len(p00) < 2 {
		return 0
	}
	n := len(p00) &^ 1
	rxQuadAVX2(&p00[0], &p01[0], &p10[0], &p11[0], n, 1, cc, cm, mm)
	return n
}

// rxQuadRunsVec applies rxQuad's butterfly to every run of blk — whole
// blocks of a pair pass: 4·run amplitudes each, the run's four slices
// back to back — in one assembly call and reports whether it did.
func rxQuadRunsVec(blk []complex128, run int, cc, cm, mm float64) bool {
	if !useAVX2 || run&1 != 0 || len(blk) < 4*run {
		return false
	}
	rxQuadAVX2(&blk[0], &blk[run], &blk[2*run], &blk[3*run], run, len(blk)/(4*run), cc, cm, mm)
	return true
}

// rxQuadMirrorVec applies rxQuadMirror's butterfly to quadruples [0, k)
// of four equal-length runs, k even, in assembly and returns k: the
// ascending prefix of p00 and p01 against the descending suffix of p10
// and p11.
func rxQuadMirrorVec(p00, p01, p10, p11 []complex128, cc, cm, mm float64) int {
	if !useAVX2 || len(p00) < 2 {
		return 0
	}
	odd := len(p00) & 1
	n := len(p00) - odd
	rxQuadMirrorAVX2(&p00[0], &p01[0], &p10[odd], &p11[odd], n, cc, cm, mm)
	return n
}

// rxChunkVec applies every in-chunk pair pass of the low sweep to the
// chunk a — qubits (q, q+1) for even q while 2^(q+1) < len(a) — each as
// one call of its assembly body, and reports whether it did. It makes
// the calls rxQuadRange makes for these passes, without the steps in
// between.
func rxChunkVec(a []complex128, k rxCoef) bool {
	if !useAVX2 {
		return false
	}
	if len(a) > 2 {
		rxQuadLowAVX2(&a[0], len(a)>>2, k.cc, k.cm, k.mm)
	}
	for b := 4; 2*b < len(a); b <<= 2 {
		rxQuadAVX2(&a[0], &a[b], &a[2*b], &a[3*b], b, len(a)/(4*b), k.cc, k.cm, k.mm)
	}
	return true
}

// rxMirrorVec applies the fused mirror pass of a one-chunk half register
// to all of amps, its len(amps)/4 quadruples, as one call of its assembly
// body — mirrorRange's call, without the steps in between — and reports
// whether it did.
func rxMirrorVec(amps []complex128, k rxCoef) bool {
	m := len(amps)
	reps, t := m>>2, m>>1
	if !useAVX2 || reps < 2 || reps&1 != 0 {
		return false
	}
	rxQuadMirrorAVX2(&amps[0], &amps[t], &amps[m-reps], &amps[t-reps], reps, k.cc, k.cm, k.mm)
	return true
}

// rxQuadLowVec applies rxQuadLow's butterfly to the whole 4-amplitude
// groups of a in assembly and returns how many amplitudes they cover.
func rxQuadLowVec(a []complex128, cc, cm, mm float64) int {
	if !useAVX2 || len(a) < 4 {
		return 0
	}
	rxQuadLowAVX2(&a[0], len(a)>>2, cc, cm, mm)
	return len(a) &^ 3
}

// rxDuoVec applies rxDuo's butterfly to the even-length prefix of two
// equal-length runs in assembly and returns that prefix's length.
func rxDuoVec(p0, p1 []complex128, c, s float64) int {
	if !useAVX2 || len(p0) < 2 {
		return 0
	}
	n := len(p0) &^ 1
	rxDuoAVX2(&p0[0], &p1[0], n, c, s)
	return n
}

// rxDuoMirrorVec applies rxDuoMirror's butterfly to pairs [0, k) of two
// equal-length runs, k even, in assembly and returns k: the ascending
// prefix of p0 against the descending suffix of p1.
func rxDuoMirrorVec(p0, p1 []complex128, c, s float64) int {
	if !useAVX2 || len(p0) < 2 {
		return 0
	}
	odd := len(p0) & 1
	n := len(p0) - odd
	rxDuoMirrorAVX2(&p0[0], &p1[odd], n, c, s)
	return n
}

// The two-state steps un-apply one sub-run from φ and from λ in assembly
// and return its ΣX fold; ok is false when they did nothing. They take a
// sub-run whole or not at all — an odd length goes to the Go bodies: the
// fold has one entry, at +0, so it cannot be handed over half-way. The
// callers have cut all slices to one length.

// revQuadVec is revQuad's step for one sub-run of eight equal-length
// slices.
func revQuadVec(p00, p01, p10, p11, l00, l01, l10, l11 []complex128, k rxCoef) (im float64, ok bool) {
	n := len(p00)
	if !useAVX2 || n == 0 || n&1 != 0 {
		return 0, false
	}
	return revQuadAVX2(&p00[0], &p01[0], &p10[0], &p11[0], &l00[0], &l01[0], &l10[0], &l11[0], n, 1, k.cc, k.cm, k.mm), true
}

// revQuadRunsVec is revQuadChunk's step for a whole chunk p (and l, as
// long) whose runs of run quadruples are sub-runs themselves: every
// run's fold, folded in run order, from one call.
func revQuadRunsVec(p, l []complex128, run int, k rxCoef) (im float64, ok bool) {
	if !useAVX2 || run&1 != 0 || len(p) < 4*run {
		return 0, false
	}
	return revQuadAVX2(&p[0], &p[run], &p[2*run], &p[3*run], &l[0], &l[run], &l[2*run], &l[3*run], run, len(p)/(4*run), k.cc, k.cm, k.mm), true
}

// revQuadMirrorVec is revQuadMirror's step: p10, p11, l10, l11 are the
// descending slices of the sub-run.
func revQuadMirrorVec(p00, p01, p10, p11, l00, l01, l10, l11 []complex128, k rxCoef) (im float64, ok bool) {
	n := len(p00)
	if !useAVX2 || n == 0 || n&1 != 0 {
		return 0, false
	}
	return revQuadMirrorAVX2(&p00[0], &p01[0], &p10[0], &p11[0], &l00[0], &l01[0], &l10[0], &l11[0], n, k.cc, k.cm, k.mm), true
}

// revQuadLowVec is revQuadLow's step for the 4-amplitude groups of p and
// l, whose common length is a multiple of 4.
func revQuadLowVec(p, l []complex128, k rxCoef) (im float64, ok bool) {
	if !useAVX2 || len(p) < 4 || len(p)&3 != 0 {
		return 0, false
	}
	return revQuadLowAVX2(&p[0], &l[0], len(p)>>2, k.cc, k.cm, k.mm), true
}

// phaseFactorsVec fills PhaseFactors' table in assembly, four factors at
// a time, from the start up to the first group of four holding an angle
// outside the assembly's domain. The Go body is to fill [done, stop):
// that group, or the whole of a table shorter than four.
func phaseFactorsVec(factors []complex128, gens []float64, gamma, sign float64) (done, stop int) {
	if !useAVX2 || len(gens) < 4 {
		return 0, len(gens)
	}
	done = phaseFactorsAVX2(&factors[0], &gens[0], len(gens), gamma, sign)
	return done, min(done+4, len(gens))
}

// mulIndexedVec multiplies the even-length prefix of amps by
// factors[idx[i]] in assembly, up to the first pair holding an index
// outside factors, and returns how many amplitudes it did. amps is as
// long as idx.
func mulIndexedVec(amps []complex128, idx []int32, factors []complex128) int {
	if !useAVX2 || len(idx) < 2 || len(factors) == 0 {
		return 0
	}
	return mulIndexedAVX2(&amps[0], &idx[0], len(idx)&^1, &factors[0], len(factors))
}

// mulVec sets the even-length prefix of dst to Mul's products in
// assembly and returns its length. a is as long as dst, b as long or
// one factor long.
func mulVec(dst, a, b []complex128) int {
	if !useAVX2 || len(dst) < 2 {
		return 0
	}
	n := len(dst) &^ 1
	mulAVX2(&dst[0], &a[0], &b[0], n, len(b) == 1)
	return n
}
