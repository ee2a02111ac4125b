package quantum

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// FuzzPhaseFactors feeds five angle bit patterns — a group of four and a
// tail of one — to PhaseFactors at γ = 1 on every body this CPU has, and
// requires the bits math.Sincos gives for each.
func FuzzPhaseFactors(f *testing.F) {
	bits := math.Float64bits
	two29 := float64(1 << 29)
	f.Add(bits(0.1), bits(-0.7), bits(2.5), bits(-3*math.Pi/8), bits(1e-3), false)
	f.Add(bits(math.Pi/4), bits(math.Pi/2), bits(3*math.Pi/4), bits(math.Pi), bits(5*math.Pi/4), true)
	f.Add(bits(0), bits(math.Copysign(0, -1)), bits(math.NaN()), bits(math.Inf(1)), bits(math.Inf(-1)), false)
	f.Add(bits(math.Nextafter(two29, 0)), bits(two29), bits(-math.Nextafter(two29, 0)), bits(1.5), bits(-two29), true)
	f.Add(bits(math.SmallestNonzeroFloat64), bits(-1e-310), bits(2.2250738585072014e-308), bits(1e8), bits(-12345.678), false)
	f.Add(uint64(0x7ff8000000000001), uint64(0xfff0000000000000), uint64(0x3ff0000000000000), uint64(0xc00921fb54442d18), uint64(1), true)
	f.Fuzz(func(t *testing.T, a, b, c, d, e uint64, conj bool) {
		gens := []float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c), math.Float64frombits(d), math.Float64frombits(e)}
		sign := 1.0
		if conj {
			sign = -1
		}
		forEachKernel(t, func(kernel string) {
			factors := make([]complex128, len(gens))
			PhaseFactors(factors, gens, 1, conj)
			for j, h := range gens {
				sin, cos := math.Sincos(h)
				if bits(real(factors[j])) != bits(cos) || bits(imag(factors[j])) != bits(sign*sin) {
					t.Fatalf("%s: angle %d = %v (%#x): (%x, %x), math.Sincos (%x, %x)", kernel, j, h, bits(h),
						bits(real(factors[j])), bits(imag(factors[j])), bits(cos), bits(sign*sin))
				}
			}
		})
	})
}

// FuzzRXKernelDuoMul feeds amplitude bit patterns, two runs of up to 9
// amplitudes, and an angle to the lone butterflies and to Mul on every
// body this CPU has, and requires the Go bodies' bits: rxDuo, then
// rxDuoMirror on its output, and Mul of the runs element-wise and by the
// second run's first factor, each into a third buffer and in place.
func FuzzRXKernelDuoMul(f *testing.F) {
	bits := math.Float64bits
	le := func(xs ...float64) []byte {
		var out []byte
		for _, x := range xs {
			out = binary.LittleEndian.AppendUint64(out, bits(x))
		}
		return out
	}
	negZero, nan := math.Copysign(0, -1), math.NaN()
	f.Add(bits(0.4), le(0.1, -0.7, 2.5, 1e-3, -1, 0.25, 3, -2))
	f.Add(bits(math.Pi), le(0, negZero, nan, math.Inf(1), math.Inf(-1), 1e-310, -2.2e-308, 1e300, 5e-324, 1, -1, 0))
	f.Add(bits(negZero), le(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20))
	f.Add(uint64(0x7ff0000000000001), le(math.Float64frombits(0xfff8000000000123), 1, 1e-300, -1e300, 0.5, 0.5))
	f.Fuzz(func(t *testing.T, theta uint64, data []byte) {
		vals := make([]complex128, min(len(data)/16, 18))
		for i := range vals {
			re, im := binary.LittleEndian.Uint64(data[16*i:]), binary.LittleEndian.Uint64(data[16*i+8:])
			vals[i] = complex(math.Float64frombits(re), math.Float64frombits(im))
		}
		n := len(vals) / 2
		k := newRXCoef(math.Float64frombits(theta))
		forEachKernel(t, func(kernel string) {
			want, got := append([]complex128(nil), vals[:2*n]...), append([]complex128(nil), vals[:2*n]...)
			rxDuoGo(want[:n], want[n:], k.c, k.s)
			rxDuo(got[:n], got[n:], k.c, k.s)
			requireSameBits(t, kernel+" rxDuo", want, got)
			rxDuoMirrorGo(want[:n], want[n:], k.c, k.s)
			rxDuoMirror(got[:n], got[n:], k.c, k.s)
			requireSameBits(t, kernel+" rxDuoMirror", want, got)

			x, y := vals[:n], vals[n:2*n]

			for _, b := range [][]complex128{y, y[:min(n, 1)]} {
				want, got := make([]complex128, n), make([]complex128, n)
				if len(b) == n {
					mulGo(want, x, b)
				} else if n > 0 {
					scaleGo(want, x, b[0])
				}
				Mul(got, x, b)
				requireSameBits(t, fmt.Sprintf("%s Mul by %d", kernel, len(b)), want, got)
				inPlace := append([]complex128(nil), x...)
				Mul(inPlace, inPlace, b)
				requireSameBits(t, fmt.Sprintf("%s Mul in place by %d", kernel, len(b)), want, inPlace)
			}
		})
	})
}

// sameFloatBits and requireSameBits compare by bit pattern, NaNs as
// NaNs (see rx_amd64_test.go).
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

// benchKernels runs op reps times per tier and iteration, the tiers in
// turn (forEachKernel), so that a host changing speed mid-run moves all
// of them; it reports ns per op for each, avx2/go and avx512/avx2.
func benchKernels(b *testing.B, op func()) {
	const reps = 32
	took := map[string]time.Duration{}
	for i := 0; i < b.N; i++ {
		forEachKernel(b, func(kernel string) {
			start := time.Now()
			for r := 0; r < reps; r++ {
				op()
			}
			took[kernel] += time.Since(start)
		})
	}
	for kernel, d := range took {
		b.ReportMetric(float64(d.Nanoseconds())/float64(b.N*reps), kernel+"-ns")
	}
	if avx, ok := took["avx2"]; ok {
		b.ReportMetric(float64(avx)/float64(took["go"]), "avx2/go")
	}
	if avx, ok := took["avx512"]; ok {
		b.ReportMetric(float64(avx)/float64(took["avx2"]), "avx512/avx2")
	}
}

// BenchmarkPhaseFactors times one stage's factor table per body on n
// half-integer generators, zero among them: 13 and 16 span the distinct
// phase values of an 8-node MaxCut (paper_n8 draws 9 to 13), 13 with a
// tail the assembly takes as an overlapping group.
func BenchmarkPhaseFactors(b *testing.B) {
	for _, n := range []int{13, 16, 128} {
		gens := make([]float64, n)
		for j := range gens {
			gens[j] = float64(j-n/2) / 2
		}
		factors := make([]complex128, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchKernels(b, func() { PhaseFactors(factors, gens, 0.37, false) })
		})
	}
}

// BenchmarkMulIndexed times the indexed phase multiply per body over 128
// amplitudes (paper_n8's half register) and 8192 (a whole chunk), from a
// 16-entry factor table.
func BenchmarkMulIndexed(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	factors := make([]complex128, 16)
	PhaseFactors(factors, []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 0.37, false)
	for _, n := range []int{128, 8192} {
		amps := make([]complex128, n)
		idx := make([]int32, n)
		for i := range amps {
			amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			idx[i] = int32(rng.Intn(len(factors)))
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchKernels(b, func() { mulIndexedRange(amps, idx, factors) })
		})
	}
}
