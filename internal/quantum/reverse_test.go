package quantum

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// Differential suite for the two-state reverse mixer sweep. Amplitudes
// are compared with == against the single-state layer kernels; the
// returned matrix element is compared with == against itself across
// worker counts, and to rounding against InnerProductSumX, the
// qubit-by-qubit complex walk that shares no code with the sweep.

// reverseTestPair returns a seeded, non-normalized state pair with a
// share of exact zeros (see kernelTestAmps).
func reverseTestPair(n int, seed int64) (phi, lam *State) {
	phi, lam = NewState(n), NewState(n)
	copy(phi.amps, kernelTestAmps(n, seed))
	copy(lam.amps, kernelTestAmps(n, seed+1))
	return phi, lam
}

// testMixer returns the sweep over phi and lam, half registers if
// mirror.
func testMixer(phi, lam *State, mirror bool) *ReverseMixer {
	m := NewReverseMixer(phi, lam)
	m.SetMirror(mirror)
	return m
}

// n = 1…13 are single-chunk registers (odd widths take the final qubit
// in-chunk), 14 and 15 add cross-chunk pairs and the multi-chunk odd
// qubit below the parallel threshold, 16 and 17 run on the pool — the
// only widths at which the worker count can matter.
func TestReverseMixerMatchesLayerAndOracle(t *testing.T) {
	maxN := 17
	if testing.Short() {
		maxN = 16
	}
	for n := 1; n <= maxN; n++ {
		for ti, theta := range kernelTestThetas {
			seed := int64(5000*n + 10*ti)
			label := fmt.Sprintf("n=%d θ=%v", n, theta)

			phi0, lam0 := reverseTestPair(n, seed)
			oracle := imag(lam0.InnerProductSumX(phi0))
			NewLayerRunner(phi0).Layer(theta, false, nil)
			NewLayerRunner(lam0).Layer(theta, false, nil)

			workers := identityWorkers
			if 1<<uint(n) < ParallelDim {
				workers = workers[:1]
			}
			withWorkers(t, workers, func() any {
				phi, lam := reverseTestPair(n, seed)
				got := testMixer(phi, lam, false).Sweep(theta)
				ampsEqualExact(t, label+" φ", phi0, phi, runtime.GOMAXPROCS(0))
				ampsEqualExact(t, label+" λ", lam0, lam, runtime.GOMAXPROCS(0))
				if d := math.Abs(got - oracle); d > 1e-12*(1+math.Abs(oracle)) {
					t.Fatalf("%s: Sweep = %v, Im InnerProductSumX = %v (|Δ| = %g)", label, got, oracle, d)
				}
				return got
			}, func(t *testing.T, baseline, got any, w int) {
				if baseline.(float64) != got.(float64) {
					t.Fatalf("%s: Sweep differs at GOMAXPROCS=%d: %v != %v", label, w, got, baseline)
				}
			})
		}
	}
}

// The sweep sits inside the per-stage loop of every analytic gradient:
// warm calls must not allocate, on the serial path or through the pool.
func TestReverseMixerZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	var sink float64
	for _, n := range []int{8, 16} {
		phi, lam := reverseTestPair(n, 77)
		m := testMixer(phi, lam, false)
		sink += m.Sweep(0.3) // warm the pool's job freelist
		if allocs := testing.AllocsPerRun(10, func() { sink += m.Sweep(-0.3) }); allocs != 0 {
			t.Fatalf("n=%d: Sweep allocates %v times per run", n, allocs)
		}
	}
	_ = sink
}

func TestReverseMixerPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewReverseMixer accepted mismatched widths")
		}
	}()
	NewReverseMixer(NewState(3), NewState(4))
}

// BenchmarkReverseMixer times one two-state sweep — RX un-applied from
// all qubits of both states, ΣX read on the way — in ns per stored
// amplitude, per body, the tiers in turn per iteration (benchKernels).
// n8 is a single chunk, n16 and n20 add cross-chunk passes (run on the
// calling goroutine at GOMAXPROCS=1); n7-half and n19-half are the half
// registers of paper_n8 and whale_n20, whose last pass is the mirror
// body's; n13 and n12-half end in a lone butterfly, revDuo's and
// revDuoMirror's.
func BenchmarkReverseMixer(b *testing.B) {
	for _, c := range []struct {
		name   string
		n      int
		mirror bool
	}{
		{"n8", 8, false},
		{"n16", 16, false},
		{"n20", 20, false},
		{"n7-half", 7, true},
		{"n19-half", 19, true},
		{"n13", 13, false},
		{"n12-half", 12, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			phi, lam := randomParallelState(c.n, 8), randomParallelState(c.n, 9)
			m := testMixer(phi, lam, c.mirror)
			var sink float64
			benchKernels(b, len(phi.amps), func() { sink += m.Sweep(0.4) })
			_ = sink
		})
	}
}
