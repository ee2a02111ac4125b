package quantum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The assembly butterflies of every tier against their oracle, the Go
// bodies. Unlike the rest of the kernel suite this compares bit
// patterns, not ==: the assembly must reproduce the sign of every zero
// too, or a digest could move. NaNs are compared as NaNs (which
// operand's payload survives is not part of the contract).

// forEachKernel calls f once per tier Kernel() can name on this CPU —
// "go", then "avx2", then "avx512" — with the dispatch pinned to that
// tier for the call, and logs on tb which tier the CPU lacks and why.
func forEachKernel(tb testing.TB, f func(kernel string)) {
	tb.Helper()
	defer func(avx2, avx512 bool) { useAVX2, useAVX512 = avx2, avx512 }(useAVX2, useAVX512)
	have2, have512 := useAVX2, useAVX512
	useAVX2, useAVX512 = false, false
	f("go")
	if !have2 {
		tb.Log("avx2 and avx512 tiers skipped: the CPU or OS lacks AVX2")
		return
	}
	useAVX2 = true
	f("avx2")
	if !have512 {
		tb.Logf("avx512 tier skipped: the CPU or OS lacks %s", avx512Missing)
		return
	}
	useAVX512 = true
	f("avx512")
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

// Every run length from 1 to 33 on every tier (AVX-512 takes groups of
// four quadruples, AVX2 an even remainder, the Go body an odd one), each
// starting at an even and at an odd element of its buffer — 32-byte
// aligned or only 16 — with the guard elements around the runs compared
// too: the assembly may write nothing the Go body does not.
func TestRXKernelQuadMatchesGoBodies(t *testing.T) {
	forEachKernel(t, func(kernel string) { testRXKernelQuad(t, kernel) })
}

func testRXKernelQuad(t *testing.T, kernel string) {
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
					name := fmt.Sprintf("%s n=%d offset=%d θ=%v nonFinite=%v", kernel, n, off, theta, nonFinite)

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

// loneKernelLengths are the run lengths the lone butterflies and the
// complex multiply are checked on: every length a register's tail can
// leave (0 to 9, the odd ones handing one element to the Go body) and
// 2¹³, the last pass of an n = 14 register or a whole chunk.
var loneKernelLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1 << 13}

// loneKernelInput is rxKernelInput with, when nonFinite is set, one
// component in sixteen replaced by a NaN of random sign and payload,
// quiet or signalling.
func loneKernelInput(rng *rand.Rand, n int, nonFinite bool) []complex128 {
	out := rxKernelInput(rng, n, nonFinite)
	if !nonFinite {
		return out
	}
	nan := func(x float64) float64 {
		if rng.Intn(16) != 0 {
			return x
		}
		return math.Float64frombits(0x7ff0000000000001 | rng.Uint64()&0x800fffffffffffff)
	}
	for i, a := range out {
		out[i] = complex(nan(real(a)), nan(imag(a)))
	}
	return out
}

// The lone butterflies against their Go bodies: rxDuo on two runs and,
// on its output, rxDuoMirror, whose odd lengths leave the middle pair to
// the Go body with its partner at the front of p1. Each run starts at an
// even and an odd element of its buffer, and the guards around the runs
// must come out as they went in. θ = −0 gives s = −0, a NaN angle NaN
// coefficients. Both have AVX2 bodies only, which the avx512 tier runs.
func TestRXKernelDuoMatchesGoBodies(t *testing.T) {
	forEachKernel(t, func(kernel string) { testRXKernelDuo(t, kernel) })
}

func testRXKernelDuo(t *testing.T, kernel string) {
	rng := rand.New(rand.NewSource(22))
	thetas := []float64{0, math.Copysign(0, -1), math.Pi / 2, -math.Pi / 2, math.Pi, 6 * (rng.Float64() - 0.5), math.NaN()}
	for _, nonFinite := range []bool{false, true} {
		for _, theta := range thetas {
			k := newRXCoef(theta)
			for _, n := range loneKernelLengths {
				stride := n + 3
				for off := 0; off <= 1; off++ {
					want := loneKernelInput(rng, 2*stride, nonFinite)
					got := append([]complex128(nil), want...)
					run := func(buf []complex128, i int) []complex128 { return buf[i*stride+off : i*stride+off+n] }
					name := fmt.Sprintf("%s n=%d offset=%d θ=%v nonFinite=%v", kernel, n, off, theta, nonFinite)

					rxDuoGo(run(want, 0), run(want, 1), k.c, k.s)
					rxDuo(run(got, 0), run(got, 1), k.c, k.s)
					requireSameBits(t, "rxDuo "+name, want, got)

					rxDuoMirrorGo(run(want, 0), run(want, 1), k.c, k.s)
					rxDuoMirror(run(got, 0), run(got, 1), k.c, k.s)
					requireSameBits(t, "rxDuoMirror "+name, want, got)
				}
			}
		}
	}
}

// A whole fused layer on every tier, full and half registers, single-
// and multi-chunk, every seventh amplitude (+0, −0): every pass funnels
// through the three butterflies, and the amplitudes must not say which
// tier ran them.
func TestRXKernelLayerBitsMatchGoBodies(t *testing.T) {
	var want [][]complex128 // per case, from the go tier
	forEachKernel(t, func(kernel string) {
		c := 0
		for n := 1; n <= 17; n++ {
			for _, mirror := range []bool{false, true} {
				for ti, theta := range []float64{0, math.Pi / 2, math.Pi, 0.37, -1.9} {
					s := NewState(n)
					copy(s.amps, kernelTestAmps(n, int64(100*n+ti)))
					for i := 0; i < len(s.amps); i += 7 {
						s.amps[i] = complex(0, math.Copysign(0, -1))
					}
					r := NewLayerRunner(s)
					r.SetMirror(mirror)
					r.Layer(theta, false, nil)
					if kernel == "go" {
						want = append(want, s.amps)
					} else {
						requireSameBits(t, fmt.Sprintf("%s Layer n=%d mirror=%v θ=%v", kernel, n, mirror, theta), want[c], s.amps)
					}
					c++
				}
			}
		}
	})
}

// revKernelClasses are the inputs of the two-state tests: rxKernelInput's
// two, and before them one whose folds stay finite. Two 1e300 components
// multiply to Inf, and a fold that has met Inf − Inf is NaN whatever else
// went into it, so class "tame" tones those down to ±1 and keeps the
// zeros, subnormals and 1e−300.
var revKernelClasses = []string{"tame", "finite", "nonFinite"}

func revKernelInput(rng *rand.Rand, n int, class string) []complex128 {
	out := rxKernelInput(rng, n, class == "nonFinite")
	if class != "tame" {
		return out
	}
	tame := func(x float64) float64 {
		if math.Abs(x) >= 1e300 {
			return math.Copysign(1, x)
		}
		return x
	}
	for i, a := range out {
		out[i] = complex(tame(real(a)), tame(imag(a)))
	}
	return out
}

// revQuadOracle is what the reverse sweep defines for one run of
// quadruples, spelled with the Go bodies alone: per sub-run the ΣX terms,
// then the butterfly on φ's four slices and on λ's. With mirror set the
// last two slices of each state descend.
func revQuadOracle(p, l [4][]complex128, mirror bool, k rxCoef) (im float64) {
	sumX, rx := sumXQuad, rxQuadGo
	if mirror {
		sumX, rx = sumXQuadMirror, rxQuadMirrorGo
	}
	n := len(p[0])
	for o := 0; o < n; o += revSubQuads {
		e := min(o+revSubQuads, n)
		var ps, ls [4][]complex128
		for i := range ps {
			lo, hi := o, e
			if mirror && i >= 2 {
				lo, hi = n-e, n-o
			}
			ps[i], ls[i] = p[i][lo:hi], l[i][lo:hi]
		}
		im += sumX(ps[0], ps[1], ps[2], ps[3], ls[0], ls[1], ls[2], ls[3])
		rx(ps[0], ps[1], ps[2], ps[3], k.cc, k.cm, k.mm)
		rx(ls[0], ls[1], ls[2], ls[3], k.cc, k.cm, k.mm)
	}
	return im
}

func requireSameSum(t *testing.T, name string, want, got float64) {
	t.Helper()
	if !sameFloatBits(want, got) {
		t.Fatalf("%s: ΣX fold: assembly %x (%v), oracle %x (%v)", name, math.Float64bits(got), got, math.Float64bits(want), want)
	}
}

// The two-state bodies against their oracle — the ΣX terms first, then
// the Go butterfly on φ and on λ — on copies of one input: the returned
// fold and every amplitude of both buffers, guards included. Lengths 1
// to 34 are one sub-run (the odd ones must come out of the dispatchers
// as the Go bodies whole, those of the form 4k + 2 as the AVX2 bodies'
// on the avx512 tier), 130 and 258 cross into a second and a third;
// each at an even and an odd element of its buffer, on every tier.
func TestRevKernelMatchesOracle(t *testing.T) {
	forEachKernel(t, func(kernel string) { testRevKernel(t, kernel) })
}

func testRevKernel(t *testing.T, kernel string) {
	rng := rand.New(rand.NewSource(20))
	lengths := []int{130, 258}
	for n := 1; n <= 34; n++ {
		lengths = append(lengths, n)
	}
	thetas := []float64{0, math.Pi / 2, math.Pi, 6 * (rng.Float64() - 0.5)}
	for _, class := range revKernelClasses {
		for _, theta := range thetas {
			k := newRXCoef(theta)
			for _, n := range lengths {
				stride := n + 6 // per run: the amplitudes, an offset of 0 or 1, guards
				for off := 0; off <= 1; off++ {
					wantP, wantL := revKernelInput(rng, 4*stride, class), revKernelInput(rng, 4*stride, class)
					gotP, gotL := append([]complex128(nil), wantP...), append([]complex128(nil), wantL...)
					run := func(buf []complex128, i int) []complex128 { return buf[i*stride+off : i*stride+off+n] }
					name := fmt.Sprintf("%s n=%d offset=%d θ=%v %s", kernel, n, off, theta, class)
					check := func(body string, want, got float64) {
						t.Helper()
						requireSameSum(t, body+" "+name, want, got)
						requireSameBits(t, body+" φ "+name, wantP, gotP)
						requireSameBits(t, body+" λ "+name, wantL, gotL)
					}

					var p, l [4][]complex128
					for i := range p {
						p[i], l[i] = run(wantP, i), run(wantL, i)
					}
					want := revQuadOracle(p, l, false, k)
					got := revQuad(run(gotP, 0), run(gotP, 1), run(gotP, 2), run(gotP, 3), run(gotL, 0), run(gotL, 1), run(gotL, 2), run(gotL, 3), k)
					check("revQuad", want, got)

					// On the first application's output, as in the forward test.
					want = revQuadOracle(p, l, true, k)
					got = revQuadMirror(run(gotP, 0), run(gotP, 1), run(gotP, 2), run(gotP, 3), run(gotL, 0), run(gotL, 1), run(gotL, 2), run(gotL, 3), k)
					check("revQuadMirror", want, got)

					// 4n amplitudes are n groups, up to 8 sub-runs' worth.
					want = 0
					for o := 0; o < 4*n; o += 4 * revSubQuads {
						e := min(o+4*revSubQuads, 4*n)
						want += sumXQuadLow(wantP[off+o:off+e], wantL[off+o:off+e])
						rxQuadLowGo(wantP[off+o:off+e], k.cc, k.cm, k.mm)
						rxQuadLowGo(wantL[off+o:off+e], k.cc, k.cm, k.mm)
					}
					got = revQuadLow(gotP[off:off+4*n], gotL[off:off+4*n], k)
					check("revQuadLow", want, got)
				}
			}
		}
	}
}

// The strided entry points: a pair pass over whole blocks, 1, 2 and 5 of
// them, as one assembly call against the run-by-run walk of the Go
// bodies, on every tier. Runs of 2 to 128 quadruples are revQuadChunk's
// one-call form (runs of 2 the AVX2 body's on the avx512 tier) and 256
// its run-by-run one; rxQuadRange takes every length in one call.
func TestRevKernelRunsMatchOracle(t *testing.T) {
	forEachKernel(t, func(kernel string) { testRevKernelRuns(t, kernel) })
}

func testRevKernelRuns(t *testing.T, kernel string) {
	rng := rand.New(rand.NewSource(21))
	k := newRXCoef(0.37)
	for _, class := range revKernelClasses {
		for q := 1; q <= 8; q++ {
			run := 1 << uint(q)
			for _, runs := range []int{1, 2, 5} {
				for off := 0; off <= 1; off++ {
					n := 4 * run * runs
					wantP, wantL := revKernelInput(rng, n+4, class), revKernelInput(rng, n+4, class)
					gotP, gotL := append([]complex128(nil), wantP...), append([]complex128(nil), wantL...)
					name := fmt.Sprintf("%s run=%d runs=%d offset=%d %s", kernel, run, runs, off, class)

					var want float64
					for i := off; i < off+n; i += 4 * run {
						var p, l [4][]complex128
						for j := range p {
							p[j], l[j] = wantP[i+j*run:i+(j+1)*run], wantL[i+j*run:i+(j+1)*run]
						}
						want += revQuadOracle(p, l, false, k)
					}
					got := revQuadChunk(gotP[off:off+n], gotL[off:off+n], q, k)
					requireSameSum(t, "revQuadChunk "+name, want, got)
					requireSameBits(t, "revQuadChunk φ "+name, wantP, gotP)
					requireSameBits(t, "revQuadChunk λ "+name, wantL, gotL)

					for i := off; i < off+n; i += 4 * run {
						rxQuadGo(wantP[i:i+run], wantP[i+run:i+2*run], wantP[i+2*run:i+3*run], wantP[i+3*run:i+4*run], k.cc, k.cm, k.mm)
					}
					rxQuadRange(gotP[off:off+n], q, 0, run*runs, k.cc, k.cm, k.mm)
					requireSameBits(t, "rxQuadRange "+name, wantP, gotP)
				}
			}
		}
	}
}

// Whole reverse sweeps on every tier: the returned matrix element and
// both states, full and half registers, every seventh amplitude of φ and
// every fifth of λ a signed zero. Sweep must not say which tier ran it —
// the fold is reverse.go's either way.
func TestRevKernelSweepBitsMatchGoBodies(t *testing.T) {
	maxN := 17
	if testing.Short() {
		maxN = 16
	}
	type result struct {
		sum      float64
		phi, lam []complex128
	}
	var want []result // per case, from the go tier
	forEachKernel(t, func(kernel string) {
		c := 0
		for n := 1; n <= maxN; n++ {
			for _, mirror := range []bool{false, true} {
				for ti, theta := range []float64{0, math.Pi / 2, math.Pi, 0.37, -1.9} {
					phi, lam := reverseTestPair(n, int64(200*n+ti))
					for i := 0; i < len(phi.amps); i += 7 {
						phi.amps[i] = complex(0, math.Copysign(0, -1))
					}
					for i := 0; i < len(lam.amps); i += 5 {
						lam.amps[i] = complex(math.Copysign(0, -1), 0)
					}
					got := result{testMixer(phi, lam, mirror).Sweep(theta), phi.amps, lam.amps}
					if kernel == "go" {
						want = append(want, got)
					} else {
						name := fmt.Sprintf("%s Sweep n=%d mirror=%v θ=%v", kernel, n, mirror, theta)
						requireSameSum(t, name, want[c].sum, got.sum)
						requireSameBits(t, name+" φ", want[c].phi, got.phi)
						requireSameBits(t, name+" λ", want[c].lam, got.lam)
					}
					c++
				}
			}
		}
	})
}

// One QAOA stage and its adjoint on every tier, the way a cost kernel
// runs them: a fused Layer whose phase separator is the indexed multiply
// (12 factors, which the AVX-512 body holds in registers, and 17, which
// it leaves to the AVX2 gather), a ReverseMixer.Sweep, and the un-phase
// with its Im⟨λ|D|φ⟩ fold, on full and half registers of 7, 12 and 13
// qubits. Both states and both returned sums must not say which tier ran
// them.
func TestRXKernelStageAcrossTiers(t *testing.T) {
	type result struct {
		sumX, im float64
		phi, lam []complex128
	}
	var want []result // per case, from the go tier
	forEachKernel(t, func(kernel string) {
		c := 0
		for _, n := range []int{7, 12, 13} {
			for _, mirror := range []bool{false, true} {
				for _, nf := range []int{12, 17} {
					rng := rand.New(rand.NewSource(int64(100*n + nf)))
					gens := make([]float64, nf)
					for j := range gens {
						gens[j] = float64(j-nf/2) / 2
					}
					idx := make([]int32, 1<<uint(n))
					for i := range idx {
						idx[i] = int32(rng.Intn(nf))
					}
					factors := make([]complex128, nf)
					PhaseFactors(factors, gens, 0.37, false)
					phi := NewState(n)
					r := NewLayerRunner(phi)
					r.SetMirror(mirror)
					r.Layer(0.81, true, func(lo, hi int) { phi.MulDiagonalIndexedRange(lo, idx[lo:hi], factors) })
					lam := NewState(n)
					copy(lam.amps, kernelTestAmps(n, int64(n)))

					var got result
					got.sumX = testMixer(phi, lam, mirror).Sweep(-0.81)
					PhaseFactors(factors, gens, 0.37, true)
					got.im = lam.InnerImMulIndexedRange(phi, 0, idx, gens, factors)
					got.phi, got.lam = phi.amps, lam.amps
					if kernel == "go" {
						want = append(want, got)
					} else {
						name := fmt.Sprintf("%s n=%d mirror=%v nf=%d", kernel, n, mirror, nf)
						requireSameSum(t, name+" ΣX", want[c].sumX, got.sumX)
						requireSameSum(t, name+" un-phase", want[c].im, got.im)
						requireSameBits(t, name+" φ", want[c].phi, got.phi)
						requireSameBits(t, name+" λ", want[c].lam, got.lam)
					}
					c++
				}
			}
		}
	})
}

// Kernel names the tier the dispatch runs, and the log says which one
// and what the CPU lacks for AVX-512: CI prints it before the
// bit-identity tests, so that a run on a CPU without AVX-512 is told
// apart from one that ran those bodies.
func TestKernelTier(t *testing.T) {
	want := "go"
	switch {
	case useAVX512:
		want = "avx512"
	case useAVX2:
		want = "avx2"
	}
	if Kernel() != want || useAVX512 != (avx512Missing == "") || useAVX512 && !useAVX2 {
		t.Fatalf("Kernel() = %q with useAVX2 %v, useAVX512 %v, AVX-512 missing %q", Kernel(), useAVX2, useAVX512, avx512Missing)
	}
	missing := avx512Missing
	if missing == "" {
		missing = "nothing"
	}
	t.Logf("kernel %s; the AVX-512 tier lacks %s", Kernel(), missing)
}
