package quantum

import (
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
		forEachKernel(func(kernel string) {
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

// benchKernels runs op reps times per body and iteration, the bodies in
// turn (forEachKernel), so that a host changing speed mid-run moves both;
// it reports ns per op for each and avx2/go.
func benchKernels(b *testing.B, op func()) {
	const reps = 32
	took := map[string]time.Duration{}
	for i := 0; i < b.N; i++ {
		forEachKernel(func(kernel string) {
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
