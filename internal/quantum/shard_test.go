package quantum

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// The pinned sharded probe (shard.go) is a pure memory-layout change:
// its Layer must leave every amplitude EXACTLY equal to LayerRunner.Layer
// on a plain State at 2, 4 and 8 shards and every GOMAXPROCS, and a warm
// Layer allocates nothing. All comparisons use ==.

// shardedFromState loads a flat state's amplitudes into a fresh
// sharded layout, closed when the test ends.
func shardedFromState(t *testing.T, s *State, shardBits int) *ShardedState {
	t.Helper()
	ss := loadSharded(s, shardBits)
	t.Cleanup(ss.Close)
	return ss
}

// loadSharded is shardedFromState for callers that Close the state
// themselves.
func loadSharded(s *State, shardBits int) *ShardedState {
	ss := NewShardedState(s.n, shardBits)
	for i, sh := range ss.shards {
		copy(sh.amps, s.amps[i*ss.sdim:(i+1)*ss.sdim])
	}
	return ss
}

// gather flattens a sharded state for comparison.
func (ss *ShardedState) gather() *State {
	s := NewState(ss.n)
	for i, sh := range ss.shards {
		copy(s.amps[i*ss.sdim:], sh.amps)
	}
	return s
}

// testPhaseFactor is the deterministic per-amplitude phase both paths
// apply: a pure function of the GLOBAL basis index, so any off/lo
// mapping bug shows up as an amplitude mismatch.
func testPhaseFactor(i int) complex128 {
	sin, cos := math.Sincos(0.37 * float64(i%23))
	return complex(cos, sin)
}

var shardTestBits = []int{1, 2, 3}

func TestShardedLayerMatchesFlat(t *testing.T) {
	for _, n := range []int{16, 17, 18} {
		for _, sb := range shardTestBits {
			withWorkers(t, identityWorkers, func() any {
				flat := randomParallelState(n, int64(100*n+sb))
				runner := NewLayerRunner(flat)
				ss := shardedFromState(t, flat, sb)

				// Two fused stages: fill+phase+mix, then phase+mix on the
				// evolved state (the second catches state corruption the
				// first pass might mask with the uniform refill).
				for pass, theta := range []float64{0.8134, -0.4271} {
					fill := pass == 0
					runner.Layer(theta, fill, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							flat.amps[i] *= testPhaseFactor(i)
						}
					})
					ss.Layer(theta, fill, func(off, lo, hi int) {
						amps := ss.shards[off>>uint(ss.sbits)].amps
						for i := lo; i < hi; i++ {
							amps[i] *= testPhaseFactor(off + i)
						}
					})
				}
				got := ss.gather()
				ampsEqualExact(t, "sharded layer", flat, got, runtime.GOMAXPROCS(0))
				return flat
			}, func(t *testing.T, baseline, got any, w int) {
				ampsEqualExact(t, "flat layer across workers", baseline.(*State), got.(*State), w)
			})
		}
	}
}

// The mixer-only layer isolates the cross-shard RX exchange: no fill,
// no phase, so any mismatch is in the exchange kernels themselves
// (straddle pair, shard quads, odd final qubit).
func TestShardExchangeMatchesFlatRX(t *testing.T) {
	for _, n := range []int{16, 17} {
		for _, sb := range shardTestBits {
			flat := randomParallelState(n, int64(7*n+sb))
			ss := shardedFromState(t, flat, sb)
			NewLayerRunner(flat).Layer(1.1543, false, nil)
			ss.Layer(1.1543, false, nil)
			ampsEqualExact(t, "exchange-only layer", flat, ss.gather(), sb)
		}
	}
}

// ShardedState.Layer at 2/4/8 shards against rx_kernel_test.go's complex
// reference: straddle, quad and single exchange passes all run
// rxQuad/rxDuo on shard slices.
func TestShardedLayerMatchesComplexReference(t *testing.T) {
	for _, n := range []int{16, 17} {
		phases := testPhases(n, int64(90+n))
		for sb := 1; sb <= 3; sb++ {
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

// Closing a sharded state must stop its worker goroutines; dropped
// states are backed up by a finalizer, so neither path leaks.
func TestShardedStateCloseStopsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	states := make([]*ShardedState, 8)
	for i := range states {
		states[i] = NewShardedState(16, 3)
	}
	for _, ss := range states {
		ss.Close()
		ss.Close() // idempotent
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain after Close: %d > baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A warm Layer — fill, phase and the exchange passes — dispatches only
// prebuilt closures.
func TestShardedLayerZeroAlloc(t *testing.T) {
	for _, n := range []int{16, 17} {
		ss := NewShardedState(n, 2)
		phase := func(off, lo, hi int) {
			amps := ss.shards[off>>uint(ss.sbits)].amps
			for i := lo; i < hi; i++ {
				amps[i] *= testPhaseFactor(off + i)
			}
		}
		ss.Layer(0.3, true, phase)
		if allocs := testing.AllocsPerRun(10, func() { ss.Layer(0.3, true, phase) }); allocs != 0 {
			t.Fatalf("n=%d: warm sharded Layer allocates %v times per run", n, allocs)
		}
		ss.Close()
	}
}

func TestNewShardedStatePanicsOnUndersizedShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shards smaller than the fixed chunk length")
		}
	}()
	NewShardedState(16, 4) // 2^12-amplitude shards < ChunkLen(2^16) = 2^13
}
