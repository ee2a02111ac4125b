//go:build !amd64

package quantum

// Off amd64 the butterflies have no assembly: the vector steps handle
// nothing, the compiler inlines them away, and rxQuad, rxQuadLow,
// rxQuadMirror and the reverse sweep's revQuad* are their Go bodies.

// Kernel names the body the mixer butterflies run: always "go" here
// (see rx_amd64.go).
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
