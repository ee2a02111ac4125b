package quantum

// AVX2 dispatch for the three quadruple butterflies. The bodies are in
// rx_amd64.s; rxQuad, rxQuadLow and rxQuadMirror hand them the part of a
// run that fills whole YMM registers and finish the rest in Go. The
// choice is made once, from the CPU alone.

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
func rxQuadAVX2(p00, p01, p10, p11 *complex128, n int, cc, cm, mm float64)

//go:noescape
func rxQuadMirrorAVX2(p00, p01, p10, p11 *complex128, n int, cc, cm, mm float64)

//go:noescape
func rxQuadLowAVX2(a *complex128, quads int, cc, cm, mm float64)

// Kernel names the body the mixer butterflies run: "avx2" for the
// assembly, "go" for the portable bodies. Both return the same bits.
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
	rxQuadAVX2(&p00[0], &p01[0], &p10[0], &p11[0], n, cc, cm, mm)
	return n
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

// rxQuadLowVec applies rxQuadLow's butterfly to the whole 4-amplitude
// groups of a in assembly and returns how many amplitudes they cover.
func rxQuadLowVec(a []complex128, cc, cm, mm float64) int {
	if !useAVX2 || len(a) < 4 {
		return 0
	}
	rxQuadLowAVX2(&a[0], len(a)>>2, cc, cm, mm)
	return len(a) &^ 3
}
