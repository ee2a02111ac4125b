package quantum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The AVX2 butterflies against their oracle, the Go bodies. Unlike the
// rest of the kernel suite this compares bit patterns, not ==: the
// assembly must reproduce the sign of every zero too, or a digest could
// move. NaNs are compared as NaNs (which operand's payload survives is
// not part of the contract).

func requireAVX2(t *testing.T) {
	t.Helper()
	if !useAVX2 {
		t.Skip("CPU or OS without AVX2: the butterflies already run their Go bodies")
	}
}

// rxKernelSpecials are the component values rounding, signed zeros,
// gradual underflow, overflow and non-finite propagation show on; the
// last three are the non-finite ones.
var rxKernelSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1.5e-308, -2.2e-308,
	1e300, -1e300, 1e-300, -1e-300,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// rxKernelInput returns n amplitudes, a quarter of their components
// drawn from rxKernelSpecials — only from the finite ones unless
// nonFinite is set — and the rest standard normal.
func rxKernelInput(rng *rand.Rand, n int, nonFinite bool) []complex128 {
	specials := rxKernelSpecials
	if !nonFinite {
		specials = specials[:len(specials)-3]
	}
	component := func() float64 {
		if rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(component(), component())
	}
	return out
}

func sameFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func requireSameBits(t *testing.T, name string, want, got []complex128) {
	t.Helper()
	for i := range want {
		if !sameFloatBits(real(want[i]), real(got[i])) || !sameFloatBits(imag(want[i]), imag(got[i])) {
			t.Fatalf("%s: amplitude %d: assembly (%x, %x), Go body (%x, %x)", name, i,
				math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

// Every run length from 1 to 33 (the odd ones leave a tail to the Go
// body), each starting at an even and at an odd element of its buffer —
// 32-byte aligned or only 16 — with the guard elements around the runs
// compared too: the assembly may write nothing the Go body does not.
func TestRXKernelAVX2MatchesGoBodies(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(19))
	const stride = 40 // per run: up to 33 amplitudes, an offset of 0 or 1, guards
	thetas := []float64{0, math.Pi / 2, -math.Pi / 2, math.Pi, 6 * (rng.Float64() - 0.5), 6 * (rng.Float64() - 0.5)}
	for _, nonFinite := range []bool{false, true} {
		for _, theta := range thetas {
			k := newRXCoef(theta)
			for n := 1; n <= 33; n++ {
				for off := 0; off <= 1; off++ {
					want := rxKernelInput(rng, 4*stride, nonFinite)
					got := append([]complex128(nil), want...)
					run := func(buf []complex128, i int) []complex128 { return buf[i*stride+off : i*stride+off+n] }
					name := fmt.Sprintf("n=%d offset=%d θ=%v nonFinite=%v", n, off, theta, nonFinite)

					rxQuadGo(run(want, 0), run(want, 1), run(want, 2), run(want, 3), k.cc, k.cm, k.mm)
					rxQuad(run(got, 0), run(got, 1), run(got, 2), run(got, 3), k.cc, k.cm, k.mm)
					requireSameBits(t, "rxQuad "+name, want, got)

					// A second application on the first one's output: the
					// inputs now include whatever the butterfly overflowed to.
					rxQuadMirrorGo(run(want, 0), run(want, 1), run(want, 2), run(want, 3), k.cc, k.cm, k.mm)
					rxQuadMirror(run(got, 0), run(got, 1), run(got, 2), run(got, 3), k.cc, k.cm, k.mm)
					requireSameBits(t, "rxQuadMirror "+name, want, got)

					// n amplitudes are ⌊n/4⌋ groups; the rest stay as they are.
					rxQuadLowGo(want[off:off+n], k.cc, k.cm, k.mm)
					rxQuadLow(got[off:off+n], k.cc, k.cm, k.mm)
					requireSameBits(t, "rxQuadLow "+name, want, got)
				}
			}
		}
	}
}

// A whole fused layer with the assembly and without, full and half
// registers, single- and multi-chunk, every seventh amplitude (+0, −0):
// every pass funnels through the three butterflies, and the amplitudes
// must not say which body ran them.
func TestRXKernelLayerBitsMatchGoBodies(t *testing.T) {
	requireAVX2(t)
	defer func() { useAVX2 = true }()
	for n := 1; n <= 17; n++ {
		for _, mirror := range []bool{false, true} {
			for ti, theta := range []float64{0, math.Pi / 2, math.Pi, 0.37, -1.9} {
				in := kernelTestAmps(n, int64(100*n+ti))
				for i := 0; i < len(in); i += 7 {
					in[i] = complex(0, math.Copysign(0, -1))
				}
				var out [2][]complex128
				for i, asm := range []bool{false, true} {
					useAVX2 = asm
					s := NewState(n)
					copy(s.amps, in)
					r := NewLayerRunner(s)
					r.SetMirror(mirror)
					r.Layer(theta, false, nil)
					out[i] = s.amps
				}
				requireSameBits(t, fmt.Sprintf("Layer n=%d mirror=%v θ=%v", n, mirror, theta), out[0], out[1])
			}
		}
	}
}
