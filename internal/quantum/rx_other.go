//go:build !amd64

package quantum

// Off amd64 the butterflies and the phase separator have no assembly: the
// vector steps handle nothing, the compiler inlines them away, and rxQuad,
// rxQuadLow, rxQuadMirror, the reverse sweep's revQuad*, PhaseFactors and
// mulIndexedRange are their Go bodies.

// Kernel names the bodies the mixer butterflies and the phase separator
// run: always "go" here (see rx_amd64.go).
func Kernel() string { return "go" }

func rxQuadVec(p00, p01, p10, p11 []complex128, cc, cm, mm float64) int { return 0 }

func rxQuadRunsVec(blk []complex128, run int, cc, cm, mm float64) bool { return false }

func rxQuadMirrorVec(p00, p01, p10, p11 []complex128, cc, cm, mm float64) int { return 0 }

func rxQuadLowVec(a []complex128, cc, cm, mm float64) int { return 0 }

func revQuadVec(p00, p01, p10, p11, l00, l01, l10, l11 []complex128, k rxCoef) (float64, bool) {
	return 0, false
}

func revQuadRunsVec(p, l []complex128, run int, k rxCoef) (float64, bool) { return 0, false }

func revQuadMirrorVec(p00, p01, p10, p11, l00, l01, l10, l11 []complex128, k rxCoef) (float64, bool) {
	return 0, false
}

func revQuadLowVec(p, l []complex128, k rxCoef) (float64, bool) { return 0, false }

func phaseFactorsVec(factors []complex128, gens []float64, gamma, sign float64) (done, stop int) {
	return 0, len(gens)
}

func mulIndexedVec(amps []complex128, idx []int32, factors []complex128) int { return 0 }
