package quantum

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// Differential suite for the two-state reverse mixer sweep. Amplitudes
// are compared with == against the single-state layer kernels on plain
// States; the returned matrix element is compared with == against itself
// across shard counts and worker counts, and to rounding against
// InnerProductSumX, the qubit-by-qubit complex walk that shares no code
// with the sweep.

// reverseTestPair returns a seeded, non-normalized state pair with a
// share of exact zeros (see kernelTestAmps).
func reverseTestPair(n int, seed int64) (phi, lam *State) {
	phi, lam = NewState(n), NewState(n)
	copy(phi.amps, kernelTestAmps(n, seed))
	copy(lam.amps, kernelTestAmps(n, seed+1))
	return phi, lam
}

// oneShardMixer loads a pair into one-shard ShardedStates — the layout of
// every workspace below qaoa.ShardThreshold — and returns the sweep over
// them with the two shards it writes. Nothing to Close: one shard starts
// no worker.
func oneShardMixer(phi, lam *State, mirror bool) (m *ReverseMixer, p, l *State) {
	sphi, slam := loadSharded(phi, 0), loadSharded(lam, 0)
	sphi.SetMirror(mirror)
	return NewShardedReverseMixer(sphi, slam), sphi.Shard(0), slam.Shard(0)
}

// n = 1…13 are single-chunk registers (odd widths take the final qubit
// in-chunk), 14 and 15 add cross-chunk pairs and the multi-chunk odd
// qubit below the parallel threshold, 16 and 17 run on the pool — the
// only widths at which the worker count can matter. Every case runs on
// one shard; 2/4/8 shards (where a shard still holds a chunk) share the
// butterflies, so two angles cover their index mapping.
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
				m, phi, lam := oneShardMixer(phi, lam, false)
				got := m.Sweep(theta)
				ampsEqualExact(t, label+" φ", phi0, phi, runtime.GOMAXPROCS(0))
				ampsEqualExact(t, label+" λ", lam0, lam, runtime.GOMAXPROCS(0))
				if d := math.Abs(got - oracle); d > 1e-12*(1+math.Abs(oracle)) {
					t.Fatalf("%s: Sweep = %v, Im InnerProductSumX = %v (|Δ| = %g)", label, got, oracle, d)
				}

				for sb := 1; sb <= 3 && n-sb >= 13 && (ti == 1 || ti == 4); sb++ {
					reverseShardedCase(t, fmt.Sprintf("%s shards=%d", label, 1<<sb), n, sb, seed, theta, got, phi0, lam0)
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

// reverseShardedCase runs the sweep on 2^sb shards of the seeded pair
// and pins it to the one-shard result: the value, both states, and
// ShardedState.Layer's own amplitudes. The shard sets are closed on
// return (t.Cleanup would hold every case's buffers to the end).
func reverseShardedCase(t *testing.T, label string, n, sb int, seed int64, theta, want float64, phi0, lam0 *State) {
	t.Helper()
	fphi, flam := reverseTestPair(n, seed)
	sphi, slam, lphi := loadSharded(fphi, sb), loadSharded(flam, sb), loadSharded(fphi, sb)
	defer sphi.Close()
	defer slam.Close()
	defer lphi.Close()

	if got := NewShardedReverseMixer(sphi, slam).Sweep(theta); got != want {
		t.Fatalf("%s: sharded Sweep %v != one shard's %v", label, got, want)
	}
	ampsEqualExact(t, label+" φ", phi0, sphi.gather(), sb)
	ampsEqualExact(t, label+" λ", lam0, slam.gather(), sb)
	lphi.Layer(theta, false, nil)
	ampsEqualExact(t, label+" ShardedState.Layer", lphi.gather(), sphi.gather(), sb)
}

// The sweep sits inside the per-stage loop of every analytic gradient:
// warm calls must not allocate, on the serial path or through the pool.
func TestReverseMixerZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	var sink float64
	for _, n := range []int{8, 16} {
		phi, lam := reverseTestPair(n, 77)
		m, _, _ := oneShardMixer(phi, lam, false)
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
			t.Fatal("NewShardedReverseMixer accepted mismatched widths")
		}
	}()
	NewShardedReverseMixer(NewShardedState(3, 0), NewShardedState(4, 0))
}

// BenchmarkReverseMixer times one two-state sweep — RX un-applied from
// all qubits of both states, ΣX read on the way — in ns per stored
// amplitude, per body (forEachKernel). n8 is a single chunk, n16 and n20
// add cross-chunk passes (run on the calling goroutine at GOMAXPROCS=1);
// n7-half and n19-half are the half registers of paper_n8 and whale_n20,
// whose last pass is the mirror body's.
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
	} {
		forEachKernel(func(kernel string) {
			b.Run(c.name+"/"+kernel, func(b *testing.B) {
				phi, lam := randomParallelState(c.n, 8), randomParallelState(c.n, 9)
				m, _, _ := oneShardMixer(phi, lam, c.mirror)
				var sink float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink += m.Sweep(0.4)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(phi.amps)), "ns/amp")
				_ = sink
			})
		})
	}
}
