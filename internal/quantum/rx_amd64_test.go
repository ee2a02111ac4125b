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

// forEachKernel calls f once per body Kernel() can name on this CPU,
// "go" first, with the dispatch pinned to that body for the call.
func forEachKernel(f func(kernel string)) {
	defer func(have bool) { useAVX2 = have }(useAVX2)
	have := useAVX2
	useAVX2 = false
	f("go")
	if have {
		useAVX2 = true
		f("avx2")
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
// as the Go bodies whole), 130 and 258 cross into a second and a third;
// each at an even and an odd element of its buffer.
func TestRevKernelAVX2MatchesOracle(t *testing.T) {
	requireAVX2(t)
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
					name := fmt.Sprintf("n=%d offset=%d θ=%v %s", n, off, theta, class)
					check := func(kernel string, want, got float64) {
						t.Helper()
						requireSameSum(t, kernel+" "+name, want, got)
						requireSameBits(t, kernel+" φ "+name, wantP, gotP)
						requireSameBits(t, kernel+" λ "+name, wantL, gotL)
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
// bodies. Runs of 2 to 128 quadruples are revQuadChunk's one-call form
// and 256 its run-by-run one; rxQuadRange takes every length in one call.
func TestRevKernelAVX2RunsMatchOracle(t *testing.T) {
	requireAVX2(t)
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
					name := fmt.Sprintf("run=%d runs=%d offset=%d %s", run, runs, off, class)

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

// Whole reverse sweeps with the assembly and without: the returned
// matrix element and both states, full and half registers, on one shard
// and at every shard count reverseShardedCase covers, every seventh
// amplitude of φ and every fifth of λ a signed zero. Sweep must not say
// which bodies ran it — the fold is reverse.go's either way.
func TestRevKernelSweepBitsMatchGoBodies(t *testing.T) {
	requireAVX2(t)
	defer func() { useAVX2 = true }()
	maxN := 17
	if testing.Short() {
		maxN = 16
	}
	for n := 1; n <= maxN; n++ {
		for _, mirror := range []bool{false, true} {
			for ti, theta := range []float64{0, math.Pi / 2, math.Pi, 0.37, -1.9} {
				phi0, lam0 := reverseTestPair(n, int64(200*n+ti))
				for i := 0; i < len(phi0.amps); i += 7 {
					phi0.amps[i] = complex(0, math.Copysign(0, -1))
				}
				for i := 0; i < len(lam0.amps); i += 5 {
					lam0.amps[i] = complex(math.Copysign(0, -1), 0)
				}
				for sb := 0; sb <= 3 && (sb == 0 || n-sb >= 13 && ti >= 3); sb++ {
					name := fmt.Sprintf("Sweep n=%d mirror=%v θ=%v shardBits=%d", n, mirror, theta, sb)
					var sum [2]float64
					var phi, lam [2]*State
					for i, asm := range []bool{false, true} {
						useAVX2 = asm
						phi[i], lam[i] = phi0.Clone(), lam0.Clone()
						sphi, slam := loadSharded(phi[i], sb), loadSharded(lam[i], sb)
						sphi.SetMirror(mirror)
						slam.SetMirror(mirror)
						sum[i] = NewShardedReverseMixer(sphi, slam).Sweep(theta)
						phi[i], lam[i] = sphi.gather(), slam.gather()
						sphi.Close()
						slam.Close()
					}
					requireSameSum(t, name, sum[0], sum[1])
					requireSameBits(t, name+" φ", phi[0].amps, phi[1].amps)
					requireSameBits(t, name+" λ", lam[0].amps, lam[1].amps)
				}
			}
		}
	}
}
