package quantum

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The phase separator's AVX2 bodies against their oracles by bit
// pattern: the factor table against math.Sincos itself, the indexed
// multiply against its Go body, guard elements included.

// phaseKernelAngles returns the angles the factor table is checked on:
// every octant of both signs, multiples of π/8 (the octant boundaries),
// the values math.Sincos treats apart (±0, NaN, ±Inf, 2²⁹ and its
// neighbours), subnormals, angles of every exponent the assembly takes,
// and random bit patterns — mostly outside its domain.
func phaseKernelAngles(rng *rand.Rand) []float64 {
	var out []float64
	for k := -40; k <= 40; k++ {
		out = append(out, (float64(k)+0.5)*math.Pi/4, float64(k)*math.Pi/8)
	}
	const two29 = 1 << 29
	out = append(out,
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		two29, -two29, math.Nextafter(two29, 0), -math.Nextafter(two29, 0),
		math.Nextafter(two29, math.Inf(1)), math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -2.2e-308, 2.2250738585072014e-308,
	)
	for i := 0; i < 400; i++ {
		e := rng.Intn(30+1074) - 1074 // 2^-1074 … 2^29
		x := math.Ldexp(1+rng.Float64(), e)
		if rng.Intn(2) == 0 {
			x = -x
		}
		out = append(out, x)
	}
	for i := 0; i < 100; i++ {
		out = append(out, math.Float64frombits(rng.Uint64()))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// requirePhaseFactors checks PhaseFactors(gens, γ, conj) against
// complex(cos, ±sin) of math.Sincos(γ·h), bit for bit, and that the two
// guard elements past the table are untouched.
func requirePhaseFactors(t *testing.T, name string, gens []float64, gamma float64, conj bool) {
	t.Helper()
	sign := 1.0
	if conj {
		sign = -1
	}
	guard := complex(math.Float64frombits(0x7ff4dead), 3)
	factors := make([]complex128, len(gens)+2)
	for i := range factors {
		factors[i] = guard
	}
	PhaseFactors(factors, gens, gamma, conj)
	for j, f := range factors {
		want, x := guard, math.NaN()
		if j < len(gens) {
			x = gamma * gens[j]
			sin, cos := math.Sincos(x)
			want = complex(cos, sign*sin)
		}
		if math.Float64bits(real(f)) != math.Float64bits(real(want)) || math.Float64bits(imag(f)) != math.Float64bits(imag(want)) {
			t.Fatalf("%s: factor %d of %d (γ·h = %v): (%x, %x), math.Sincos (%x, %x)", name, j, len(gens), x,
				math.Float64bits(real(f)), math.Float64bits(imag(f)), math.Float64bits(real(want)), math.Float64bits(imag(want)))
		}
	}
}

// Every angle set on a γ grid, conj on and off, as one long table and
// as every window of 0 to 9 generators (the tails, and each special in
// every position of a group of four); half-integer generators, which an
// integer Hamiltonian's table holds, on a finer γ grid.
func TestPhaseKernelFactorsMatchSincos(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	angles := phaseKernelAngles(rng)
	var halves []float64
	for h := -40.0; h <= 40; h += 0.5 {
		halves = append(halves, h)
	}
	gammas := []float64{1, -1, 0.37, -2.9, math.Pi, 1e-3, 123.456}
	forEachKernel(func(kernel string) {
		for _, conj := range []bool{false, true} {
			for _, gamma := range gammas {
				name := fmt.Sprintf("%s γ=%v conj=%v", kernel, gamma, conj)
				requirePhaseFactors(t, name+" all", angles, gamma, conj)
				for n := 0; n <= 9; n++ {
					for o := 0; o+n <= len(angles); o++ {
						requirePhaseFactors(t, fmt.Sprintf("%s window %d+%d", name, o, n), angles[o:o+n], gamma, conj)
					}
				}
			}
			for g := -6.0; g <= 6; g += 0.0625 {
				requirePhaseFactors(t, fmt.Sprintf("%s half-integer γ=%v conj=%v", kernel, g, conj), halves, g, conj)
			}
		}
	})
}

// Lengths 0 to 33 (the odd ones leave a tail to the Go body), each at an
// even and an odd element of its buffer, indices 0 and len−1 of the
// factor table always among them, amplitudes and factors with ±0,
// subnormals, 1e±300 and non-finite components; the guard elements
// around the range must come out as they went in.
func TestPhaseKernelMulIndexedMatchesGoBody(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(30))
	for _, nf := range []int{1, 2, 17} {
		for n := 0; n <= 33; n++ {
			for off := 0; off <= 1; off++ {
				for _, nonFinite := range []bool{false, true} {
					factors := rxKernelInput(rng, nf, nonFinite)
					idx := make([]int32, n)
					for i := range idx {
						idx[i] = int32(rng.Intn(nf))
					}
					if n > 0 {
						idx[0], idx[n-1] = int32(nf-1), 0
					}
					want := rxKernelInput(rng, n+3, nonFinite)
					got := append([]complex128(nil), want...)
					mulIndexedGo(want[off:off+n], idx, factors)
					mulIndexedRange(got[off:off+n], idx, factors)
					requireSameBits(t, fmt.Sprintf("mulIndexedRange nf=%d n=%d offset=%d nonFinite=%v", nf, n, off, nonFinite), want, got)
				}
			}
		}
	}
}

// An index outside the factor table still panics as the Go body does, at
// every position of a range and for every kind of bad index, and the
// amplitudes before it come out as the Go body leaves them.
func TestPhaseKernelMulIndexedBadIndexPanics(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(31))
	const nf = 8
	factors := rxKernelInput(rng, nf, false)
	run := func(mul func([]complex128, []int32, []complex128), amps []complex128, idx []int32) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		mul(amps, idx, factors)
		return "no panic"
	}
	for n := 1; n <= 9; n++ {
		for at := 0; at < n; at++ {
			for _, bad := range []int32{-1, nf, nf + 1, math.MaxInt32, math.MinInt32} {
				idx := make([]int32, n)
				for i := range idx {
					idx[i] = int32(rng.Intn(nf))
				}
				idx[at] = bad
				want := rxKernelInput(rng, n, false)
				got := append([]complex128(nil), want...)
				name := fmt.Sprintf("n=%d index %d = %d", n, at, bad)
				wantMsg, gotMsg := run(mulIndexedGo, want, idx), run(mulIndexedRange, got, idx)
				if gotMsg != wantMsg || !strings.Contains(wantMsg, "index out of range") {
					t.Fatalf("%s: panic %q, Go body %q", name, gotMsg, wantMsg)
				}
				requireSameBits(t, name, want, got)
			}
		}
	}
}

// Mul against its Go bodies on every length of loneKernelLengths: into a
// disjoint buffer and in place (MulRange and the un-phase multiply with
// dst == a), by a run of factors and by one (fillPhase's doubling with a
// pair rotation), each slice at an even and an odd element of its
// buffer, with ±0, subnormals, ±Inf and NaN payloads among the
// components; the guards around dst must come out as they went in.
func TestPhaseKernelMulMatchesGoBodies(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(33))
	for _, nonFinite := range []bool{false, true} {
		for _, n := range loneKernelLengths {
			for off := 0; off <= 1; off++ {
				for _, inPlace := range []bool{false, true} {
					for _, bcast := range []bool{false, true} {
						name := fmt.Sprintf("Mul n=%d offset=%d inPlace=%v bcast=%v nonFinite=%v", n, off, inPlace, bcast, nonFinite)
						a := loneKernelInput(rng, n+2, nonFinite)[1-off : 1-off+n]
						b := loneKernelInput(rng, n+1, nonFinite)[off : off+n]
						if bcast {
							b = loneKernelInput(rng, 1, nonFinite)
						}
						want := loneKernelInput(rng, n+3, nonFinite)
						if inPlace {
							copy(want[off:off+n], a)
						}
						got := append([]complex128(nil), want...)
						src := func(buf []complex128) []complex128 {
							if inPlace {
								return buf[off : off+n]
							}
							return a
						}
						if bcast {
							scaleGo(want[off:off+n], src(want), b[0])
						} else {
							mulGo(want[off:off+n], src(want), b)
						}
						Mul(got[off:off+n], src(got), b)
						requireSameBits(t, name, want, got)
					}
				}
			}
		}
	}
}
