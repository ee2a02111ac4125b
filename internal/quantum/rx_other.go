//go:build !amd64

package quantum

// Off amd64 the butterflies have no assembly: the vector steps handle
// nothing, the compiler inlines them away, and rxQuad, rxQuadLow and
// rxQuadMirror are their Go bodies.

// Kernel names the body the mixer butterflies run: always "go" here
// (see rx_amd64.go).
func Kernel() string { return "go" }

func rxQuadVec(p00, p01, p10, p11 []complex128, cc, cm, mm float64) int { return 0 }

func rxQuadMirrorVec(p00, p01, p10, p11 []complex128, cc, cm, mm float64) int { return 0 }

func rxQuadLowVec(a []complex128, cc, cm, mm float64) int { return 0 }
