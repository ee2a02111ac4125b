package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Differential suite for the structure-aware RX kernels. rxQuad, rxDuo
// and the q = 0 fast path do real arithmetic on the components; the
// complex-product formulas they replaced are kept here, test-only and
// verbatim, as the reference, and every comparison is == (complex ==
// treats ±0 alike, the one difference the rewrite is allowed). On a
// GOARCH that fuses a*b+c (arm64) reference and kernel may round
// differently; the identity is asserted for amd64-style unfused
// arithmetic, which is what CI and the benchmark host run.

// refRXCoef returns the complex coefficients the pre-rewrite kernels
// carried.
func refRXCoef(theta float64) (c, ms, cc, cm, mm complex128) {
	sin, cos := math.Sincos(theta / 2)
	c = complex(cos, 0)
	ms = complex(0, -sin)
	return c, ms, c * c, c * ms, ms * ms
}

// refRXPairRange is the pre-rewrite State.rxPairRange, verbatim.
func refRXPairRange(amps []complex128, q, rlo, rhi int, cc, cm, mm complex128) {
	bit0 := 1 << uint(q)
	bit1 := bit0 << 1
	mask := bit0 - 1
	for r := rlo; r < rhi; {
		i := ((r &^ mask) << 2) | (r & mask)
		run := bit0 - (r & mask)
		if run > rhi-r {
			run = rhi - r
		}
		for k := 0; k < run; k++ {
			i00 := i + k
			i01 := i00 | bit0
			i10 := i00 | bit1
			i11 := i01 | bit1
			a00, a01, a10, a11 := amps[i00], amps[i01], amps[i10], amps[i11]
			amps[i00] = cc*a00 + cm*(a01+a10) + mm*a11
			amps[i01] = cc*a01 + cm*(a00+a11) + mm*a10
			amps[i10] = cc*a10 + cm*(a00+a11) + mm*a01
			amps[i11] = cc*a11 + cm*(a01+a10) + mm*a00
		}
		r += run
	}
}

// refRX1Range is the pre-rewrite RX use of State.apply1QRange: the 2×2
// kernel [[c, ms], [ms, c]] for pair representatives r ∈ [rlo, rhi).
func refRX1Range(amps []complex128, bit, rlo, rhi int, c, ms complex128) {
	mask := bit - 1
	for r := rlo; r < rhi; r++ {
		i := ((r &^ mask) << 1) | (r & mask)
		j := i | bit
		x, y := amps[i], amps[j]
		amps[i] = c*x + ms*y
		amps[j] = ms*x + c*y
	}
}

// rxDuoRange drives rxDuo over the representatives [rlo, rhi) of an
// arbitrary qubit, run by run — the production call sites only ever
// need the top qubit, this exercises every position.
func rxDuoRange(amps []complex128, bit, rlo, rhi int, c, s float64) {
	mask := bit - 1
	for r := rlo; r < rhi; {
		i := ((r &^ mask) << 1) | (r & mask)
		run := min(bit-(r&mask), rhi-r)
		rxDuo(amps[i:i+run], amps[i+bit:i+bit+run], c, s)
		r += run
	}
}

// refRXAll is RXAll spelled with the reference kernels.
func refRXAll(amps []complex128, n int, theta float64) {
	c, ms, cc, cm, mm := refRXCoef(theta)
	q := 0
	for ; q+1 < n; q += 2 {
		refRXPairRange(amps, q, 0, len(amps)>>2, cc, cm, mm)
	}
	if q < n {
		refRX1Range(amps, 1<<uint(q), 0, len(amps)>>1, c, ms)
	}
}

// kernelTestAmps returns 2^n seeded random amplitudes, a share of them
// exact zeros — whole amplitudes, single components, and negative
// zeros — the inputs on which a dropped (±0)·x term could show.
func kernelTestAmps(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	amps := make([]complex128, 1<<uint(n))
	for i := range amps {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		switch rng.Intn(8) {
		case 0:
			re, im = 0, 0
		case 1:
			re = 0
		case 2:
			im = math.Copysign(0, -1)
		}
		amps[i] = complex(re, im)
	}
	return amps
}

var kernelTestThetas = []float64{0, math.Pi / 2, -math.Pi / 2, math.Pi, 0.8342, -2.6179}

// kernelTestRanges returns representative ranges over [0, total): the
// full range plus unaligned ones that start and stop mid-run.
func kernelTestRanges(total int, rng *rand.Rand) [][2]int {
	out := [][2]int{{0, total}}
	if total > 2 {
		out = append(out, [2]int{1, total - 1})
	}
	for k := 0; k < 3 && total > 4; k++ {
		lo := rng.Intn(total - 1)
		out = append(out, [2]int{lo, lo + 1 + rng.Intn(total-lo-1)})
	}
	return out
}

func sliceEqualExact(t *testing.T, name string, want, got []complex128) {
	t.Helper()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: amplitude %d: got %v, want %v", name, i, got[i], want[i])
		}
	}
}

func TestRXQuadMatchesComplexReference(t *testing.T) {
	for n := 2; n <= 14; n++ {
		rng := rand.New(rand.NewSource(int64(n)))
		for q := 0; q+1 < n; q++ {
			for ti, theta := range kernelTestThetas {
				_, _, cc, cm, mm := refRXCoef(theta)
				k := newRXCoef(theta)
				for _, r := range kernelTestRanges(1<<uint(n-2), rng) {
					want := kernelTestAmps(n, int64(1000*n+10*q+ti))
					got := append([]complex128(nil), want...)
					refRXPairRange(want, q, r[0], r[1], cc, cm, mm)
					rxQuadRange(got, q, r[0], r[1], k.cc, k.cm, k.mm)
					sliceEqualExact(t, fmt.Sprintf("rxQuad n=%d q=%d θ=%v r=%v", n, q, theta, r), want, got)
				}
			}
		}
	}
}

func TestRXDuoMatchesComplexReference(t *testing.T) {
	for n := 1; n <= 14; n++ {
		rng := rand.New(rand.NewSource(int64(50 + n)))
		for q := 0; q < n; q++ {
			for ti, theta := range kernelTestThetas {
				c, ms, _, _, _ := refRXCoef(theta)
				k := newRXCoef(theta)
				for _, r := range kernelTestRanges(1<<uint(n-1), rng) {
					want := kernelTestAmps(n, int64(2000*n+10*q+ti))
					got := append([]complex128(nil), want...)
					refRX1Range(want, 1<<uint(q), r[0], r[1], c, ms)
					rxDuoRange(got, 1<<uint(q), r[0], r[1], k.c, k.s)
					sliceEqualExact(t, fmt.Sprintf("rxDuo n=%d q=%d θ=%v r=%v", n, q, theta, r), want, got)
				}
			}
		}
	}
}

// testPhases returns a deterministic per-amplitude phase table.
func testPhases(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	phases := make([]float64, 1<<uint(n))
	for i := range phases {
		phases[i] = rng.NormFloat64()
	}
	return phases
}

// LayerRunner.Layer must equal FillUniform + phase + RXAll spelled with
// the reference formulas, bit for bit: single-chunk and multi-chunk
// registers, odd and even widths, with and without the refill.
func TestLayerMatchesComplexReference(t *testing.T) {
	for n := 2; n <= 15; n++ {
		phases := testPhases(n, int64(70+n))
		for ti, theta := range kernelTestThetas {
			for _, fill := range []bool{true, false} {
				s := NewState(n)
				copy(s.amps, kernelTestAmps(n, int64(3000*n+ti)))
				want := append([]complex128(nil), s.amps...)
				if fill {
					for i := range want {
						want[i] = complex(1/math.Sqrt(float64(len(want))), 0)
					}
				}
				applyPhaseRange(want, phases)
				refRXAll(want, n, theta)

				NewLayerRunner(s).Layer(theta, fill, func(lo, hi int) {
					applyPhaseRange(s.amps[lo:hi], phases[lo:hi])
				})
				sliceEqualExact(t, fmt.Sprintf("Layer n=%d θ=%v fill=%v", n, theta, fill), want, s.amps)

				// RXAll itself, the unfused spelling of the same mixer.
				r := NewState(n)
				copy(r.amps, want)
				refRXAll(want, n, -theta)
				r.RXAll(-theta)
				sliceEqualExact(t, fmt.Sprintf("RXAll n=%d θ=%v", n, -theta), want, r.amps)
			}
		}
	}
}

// ShardedState.Layer at 1/2/4/8 shards against the same reference:
// straddle, quad and single exchange passes all run rxQuad/rxDuo on
// shard slices.
func TestShardedLayerMatchesComplexReference(t *testing.T) {
	for _, n := range []int{16, 17} {
		phases := testPhases(n, int64(90+n))
		for sb := 0; sb <= 3; sb++ {
			for ti, theta := range []float64{math.Pi / 2, 0.8342} {
				flat := NewState(n)
				copy(flat.amps, kernelTestAmps(n, int64(4000*n+10*sb+ti)))
				ss := shardedFromState(t, flat, sb)
				want := append([]complex128(nil), flat.amps...)
				for pass, fill := range []bool{true, false} {
					if fill {
						for i := range want {
							want[i] = complex(1/math.Sqrt(float64(len(want))), 0)
						}
					}
					applyPhaseRange(want, phases)
					refRXAll(want, n, theta-float64(pass))
					ss.Layer(theta-float64(pass), fill, func(off, lo, hi int) {
						applyPhaseRange(ss.shards[off>>uint(ss.sbits)].amps[lo:hi], phases[off+lo:off+hi])
					})
				}
				sliceEqualExact(t, fmt.Sprintf("sharded Layer n=%d shards=%d θ=%v", n, 1<<uint(sb), theta), want, ss.gather().amps)
			}
		}
	}
}

// The gate-by-gate simulator (H and RX through the generic Apply1Q,
// each coupling as CNOT·RZ·CNOT) shares no code with the fused kernels:
// a QAOA ring circuit run both ways must agree to rounding error.
func TestLayerAgreesWithCircuitSimulator(t *testing.T) {
	for n := 2; n <= 14; n++ {
		gammas := []float64{0.7, -0.45}
		betas := []float64{0.3, 1.1}
		want := NewState(n)
		for q := 0; q < n; q++ {
			want.H(q)
		}
		for st := range gammas {
			for q := 0; q < n; q++ {
				if a, b := q, (q+1)%n; a != b && (n > 2 || q == 0) {
					want.CNOT(a, b)
					want.RZ(b, gammas[st])
					want.CNOT(a, b)
				}
			}
			for q := 0; q < n; q++ {
				want.RX(q, 2*betas[st])
			}
		}

		s := NewState(n)
		r := NewLayerRunner(s)
		for st := range gammas {
			g := gammas[st]
			r.Layer(2*betas[st], st == 0, func(lo, hi int) {
				for z := lo; z < hi; z++ {
					// exp(−iγ/2·Z_aZ_b) per ring edge: eigenvalue +1 when
					// the two bits agree.
					ph := 0.0
					for q := 0; q < n; q++ {
						a, b := q, (q+1)%n
						if a == b || (n == 2 && q != 0) {
							continue
						}
						if (z>>uint(a))&1 == (z>>uint(b))&1 {
							ph -= g / 2
						} else {
							ph += g / 2
						}
					}
					sin, cos := math.Sincos(ph)
					s.amps[z] *= complex(cos, sin)
				}
			})
		}
		for i := range want.amps {
			if d := cmplx.Abs(want.amps[i] - s.amps[i]); d > 1e-12 {
				t.Fatalf("n=%d amplitude %d: fused %v vs circuit %v (|Δ| = %g)", n, i, s.amps[i], want.amps[i], d)
			}
		}
	}
}

// Kernel micro-benchmarks, one per place a butterfly can sit relative
// to the chunk geometry, reporting ns per amplitude touched — the unit
// of the benchmark ladder's quantum.sweep_ns_per_amp.* rows, so a
// regression there can be pinned to a qubit position here. All run on
// the calling goroutine.

// BenchmarkRXQuad times one fused RX pair pass per butterfly body
// (forEachKernel), through the calls Layer makes — rxQuadRange over the
// whole representative range, mirrorRange — so that what a body's
// dispatch costs is in the figure: in-chunk low qubits (q0 is the
// contiguous fast path; q2 and q4 the shortest sliced runs, 16 and 64
// amplitudes, which the assembly walks from one call per pass and the Go
// bodies take one call each; q12 the last in-chunk pair) and the mirror
// pass over one L2-resident chunk, a cross-chunk pair over a 2^20
// register that streams from memory, and n7, the whole mixer of
// paper_n8's half register (three pair passes and the mirror's 32
// quadruples), where call overhead is all there is to lose.
func BenchmarkRXQuad(b *testing.B) {
	k := newRXCoef(0.4)
	for _, c := range []struct {
		name   string
		n      int
		pairs  []int
		mirror bool
	}{
		{"q0", 15, []int{0}, false},
		{"q2", 15, []int{2}, false},
		{"q4", 15, []int{4}, false},
		{"q12", 15, []int{12}, false},
		{"cross-chunk", 20, []int{18}, false},
		{"mirror", 15, nil, true},
		{"n7", 7, []int{0, 2, 4}, true},
	} {
		forEachKernel(func(kernel string) {
			b.Run(c.name+"/"+kernel, func(b *testing.B) {
				s := randomParallelState(c.n, 7)
				touched := len(s.amps) * len(c.pairs)
				if c.mirror {
					touched += len(s.amps)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, q := range c.pairs {
						rxQuadRange(s.amps, q, 0, len(s.amps)>>2, k.cc, k.cm, k.mm)
					}
					if c.mirror {
						mirrorRange(s.amps, c.n, 0, mirrorReps(c.n), k)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(touched), "ns/amp")
			})
		})
	}
}
