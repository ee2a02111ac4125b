package quantum

// Assembly dispatch for the eleven bodies: the three quadruple
// butterflies, their two-state forms and the two lone butterflies
// (rx_amd64.s), and the phase separator's factor table, indexed multiply
// and element-wise multiply (phase_amd64.s). Each has an AVX2 form; the
// three butterflies, their two-state forms, the factor table and the
// indexed multiply have an AVX-512 form too. rxQuad, rxQuadLow,
// rxQuadMirror, rxDuo, rxDuoMirror, the reverse sweep, PhaseFactors,
// mulIndexedRange and Mul hand the widest body the part of their input
// that fills whole registers — ZMM, then YMM — and finish the rest in Go.
// The tier is chosen once, from the CPU alone.

// useAVX2 and useAVX512 say which assembly tiers run; AVX-512 is used
// only with AVX2 beside it, for the remainders. avx512Missing names what
// the CPU or the OS lacks for the AVX-512 tier ("" when nothing).
var (
	useAVX2       = detectAVX2()
	avx512Missing = missingAVX512()
	useAVX512     = avx512Missing == ""
)

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

// missingAVX512 returns "" when the AVX-512 bodies can run: AVX2 is
// there, the CPU has AVX512F (leaf 7, EBX bit 16) — the only subset the
// bodies use — and XCR0 & 0xE6 = 0xE6, the OS saving the YMM, opmask and
// both halves of the ZMM state. Otherwise it names what is missing.
func missingAVX512() string {
	if !detectAVX2() {
		return "AVX2"
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&(1<<16) == 0 {
		return "AVX512F"
	}
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return "OS support for the ZMM and opmask state (XCR0 & 0xE6)"
	}
	return ""
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func rxQuadAVX2(p00, p01, p10, p11 *complex128, run, runs int, cc, cm, mm float64)

//go:noescape
func rxQuadAVX512(p00, p01, p10, p11 *complex128, run, runs int, cc, cm, mm float64)

//go:noescape
func rxQuadMirrorAVX2(p00, p01, p10, p11 *complex128, n int, cc, cm, mm float64)

//go:noescape
func rxQuadMirrorAVX512(p00, p01, p10, p11 *complex128, n int, cc, cm, mm float64)

//go:noescape
func rxQuadLowAVX2(a *complex128, quads int, cc, cm, mm float64)

//go:noescape
func rxQuadLowAVX512(a *complex128, quads int, cc, cm, mm float64)

//go:noescape
func revQuadAVX2(p00, p01, p10, p11, l00, l01, l10, l11 *complex128, run, runs int, cc, cm, mm float64) float64

//go:noescape
func revQuadAVX512(p00, p01, p10, p11, l00, l01, l10, l11 *complex128, run, runs int, cc, cm, mm float64) float64

//go:noescape
func revQuadMirrorAVX2(p00, p01, p10, p11, l00, l01, l10, l11 *complex128, n int, cc, cm, mm float64) float64

//go:noescape
func revQuadMirrorAVX512(p00, p01, p10, p11, l00, l01, l10, l11 *complex128, n int, cc, cm, mm float64) float64

//go:noescape
func revQuadLowAVX2(p, l *complex128, quads int, cc, cm, mm float64) float64

//go:noescape
func revQuadLowAVX512(p, l *complex128, quads int, cc, cm, mm float64) float64

//go:noescape
func rxDuoAVX2(p0, p1 *complex128, n int, c, s float64)

//go:noescape
func rxDuoMirrorAVX2(p0, p1 *complex128, n int, c, s float64)

//go:noescape
func phaseFactorsAVX2(factors *complex128, gens *float64, n int, gamma, sign float64) int

//go:noescape
func phaseFactorsAVX512(factors *complex128, gens *float64, n int, gamma, sign float64) int

//go:noescape
func mulIndexedAVX2(amps *complex128, idx *int32, n int, factors *complex128, nf int) int

//go:noescape
func mulIndexedAVX512(amps *complex128, idx *int32, n int, factors *complex128, nf int) int

//go:noescape
func mulAVX2(dst, a, b *complex128, n int, bcast bool)

// Kernel names the bodies the mixer butterflies and the phase separator
// run: "avx512" or "avx2" for the assembly tiers, "go" for the portable
// bodies. All three return the same bits.
func Kernel() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX2:
		return "avx2"
	}
	return "go"
}

// rxQuadVec applies rxQuad's butterfly to the even-length prefix of four
// equal-length runs in assembly — whole ZMM groups of four quadruples,
// then a YMM pair — and returns that prefix's length.
func rxQuadVec(p00, p01, p10, p11 []complex128, cc, cm, mm float64) int {
	if !useAVX2 || len(p00) < 2 {
		return 0
	}
	k := 0
	if useAVX512 && len(p00) >= 4 {
		k = len(p00) &^ 3
		rxQuadAVX512(&p00[0], &p01[0], &p10[0], &p11[0], k, 1, cc, cm, mm)
	}
	if n := len(p00) &^ 1; k < n {
		rxQuadAVX2(&p00[k], &p01[k], &p10[k], &p11[k], n-k, 1, cc, cm, mm)
		k = n
	}
	return k
}

// rxQuadRunsVec applies rxQuad's butterfly to every run of blk — whole
// blocks of a pair pass: 4·run amplitudes each, the run's four slices
// back to back — in one assembly call and reports whether it did.
func rxQuadRunsVec(blk []complex128, run int, cc, cm, mm float64) bool {
	if !useAVX2 || run&1 != 0 || len(blk) < 4*run {
		return false
	}
	if useAVX512 && run&3 == 0 {
		rxQuadAVX512(&blk[0], &blk[run], &blk[2*run], &blk[3*run], run, len(blk)/(4*run), cc, cm, mm)
	} else {
		rxQuadAVX2(&blk[0], &blk[run], &blk[2*run], &blk[3*run], run, len(blk)/(4*run), cc, cm, mm)
	}
	return true
}

// rxQuadMirrorVec applies rxQuadMirror's butterfly to quadruples [0, k)
// of four equal-length runs, k even, in assembly and returns k: the
// ascending prefix of p00 and p01 against the descending suffix of p10
// and p11 — whole ZMM groups of four quadruples, then a YMM pair.
func rxQuadMirrorVec(p00, p01, p10, p11 []complex128, cc, cm, mm float64) int {
	n := len(p00)
	if !useAVX2 || n < 2 {
		return 0
	}
	k := 0
	if useAVX512 && n >= 4 {
		k = n &^ 3
		rxQuadMirrorAVX512(&p00[0], &p01[0], &p10[n-k], &p11[n-k], k, cc, cm, mm)
	}
	if e := n &^ 1; k < e {
		rxQuadMirrorAVX2(&p00[k], &p01[k], &p10[n-e], &p11[n-e], e-k, cc, cm, mm)
		k = e
	}
	return k
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
	if useAVX512 {
		if len(a) > 2 {
			rxQuadLowAVX512(&a[0], len(a)>>2, k.cc, k.cm, k.mm)
		}
		for b := 4; 2*b < len(a); b <<= 2 {
			rxQuadAVX512(&a[0], &a[b], &a[2*b], &a[3*b], b, len(a)/(4*b), k.cc, k.cm, k.mm)
		}
		return true
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
	if useAVX512 && reps&3 == 0 {
		rxQuadMirrorAVX512(&amps[0], &amps[t], &amps[m-reps], &amps[t-reps], reps, k.cc, k.cm, k.mm)
	} else {
		rxQuadMirrorAVX2(&amps[0], &amps[t], &amps[m-reps], &amps[t-reps], reps, k.cc, k.cm, k.mm)
	}
	return true
}

// rxQuadLowVec applies rxQuadLow's butterfly to the whole 4-amplitude
// groups of a in assembly and returns how many amplitudes they cover.
func rxQuadLowVec(a []complex128, cc, cm, mm float64) int {
	if !useAVX2 || len(a) < 4 {
		return 0
	}
	if useAVX512 {
		rxQuadLowAVX512(&a[0], len(a)>>2, cc, cm, mm)
	} else {
		rxQuadLowAVX2(&a[0], len(a)>>2, cc, cm, mm)
	}
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
// sub-run whole or not at all — the fold has one entry, at +0, so it
// cannot be handed over half-way: a length that is a multiple of 4 goes
// to the AVX-512 body, another even one to the AVX2 body, an odd one to
// the Go bodies. The callers have cut all slices to one length.

// revQuadVec is revQuad's step for one sub-run of eight equal-length
// slices.
func revQuadVec(p00, p01, p10, p11, l00, l01, l10, l11 []complex128, k rxCoef) (im float64, ok bool) {
	n := len(p00)
	if !useAVX2 || n == 0 || n&1 != 0 {
		return 0, false
	}
	if useAVX512 && n&3 == 0 {
		return revQuadAVX512(&p00[0], &p01[0], &p10[0], &p11[0], &l00[0], &l01[0], &l10[0], &l11[0], n, 1, k.cc, k.cm, k.mm), true
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
	if useAVX512 && run&3 == 0 {
		return revQuadAVX512(&p[0], &p[run], &p[2*run], &p[3*run], &l[0], &l[run], &l[2*run], &l[3*run], run, len(p)/(4*run), k.cc, k.cm, k.mm), true
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
	if useAVX512 && n&3 == 0 {
		return revQuadMirrorAVX512(&p00[0], &p01[0], &p10[0], &p11[0], &l00[0], &l01[0], &l10[0], &l11[0], n, k.cc, k.cm, k.mm), true
	}
	return revQuadMirrorAVX2(&p00[0], &p01[0], &p10[0], &p11[0], &l00[0], &l01[0], &l10[0], &l11[0], n, k.cc, k.cm, k.mm), true
}

// revQuadLowVec is revQuadLow's step for the 4-amplitude groups of p and
// l, whose common length is a multiple of 4.
func revQuadLowVec(p, l []complex128, k rxCoef) (im float64, ok bool) {
	if !useAVX2 || len(p) < 4 || len(p)&3 != 0 {
		return 0, false
	}
	if useAVX512 {
		return revQuadLowAVX512(&p[0], &l[0], len(p)>>2, k.cc, k.cm, k.mm), true
	}
	return revQuadLowAVX2(&p[0], &l[0], len(p)>>2, k.cc, k.cm, k.mm), true
}

// phaseFactorsVec fills PhaseFactors' table in assembly, eight factors
// at a time with AVX-512 or four with AVX2, from the start up to the
// first group holding an angle outside the assembly's domain. The Go
// body is to fill [done, stop): that group, or the whole of a table
// shorter than a group.
func phaseFactorsVec(factors []complex128, gens []float64, gamma, sign float64) (done, stop int) {
	switch {
	case useAVX512 && len(gens) >= 8:
		done = phaseFactorsAVX512(&factors[0], &gens[0], len(gens), gamma, sign)
		return done, min(done+8, len(gens))
	case useAVX2 && len(gens) >= 4:
		done = phaseFactorsAVX2(&factors[0], &gens[0], len(gens), gamma, sign)
		return done, min(done+4, len(gens))
	}
	return 0, len(gens)
}

// mulIndexedVec multiplies the even-length prefix of amps by
// factors[idx[i]] in assembly, up to the first group holding an index
// outside factors, and returns how many amplitudes it did. amps is as
// long as idx. A table of at most 16 factors fits the AVX-512 body's
// registers, which takes groups of eight; the AVX2 body gathers pairs.
func mulIndexedVec(amps []complex128, idx []int32, factors []complex128) int {
	if !useAVX2 || len(idx) < 2 || len(factors) == 0 {
		return 0
	}
	k := 0
	if useAVX512 && len(factors) <= 16 && len(idx) >= 8 {
		n := len(idx) &^ 7
		if k = mulIndexedAVX512(&amps[0], &idx[0], n, &factors[0], len(factors)); k < n {
			return k
		}
	}
	if n := len(idx) &^ 1; k < n {
		k += mulIndexedAVX2(&amps[k], &idx[k], n-k, &factors[0], len(factors))
	}
	return k
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
