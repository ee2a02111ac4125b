package quantum

import (
	"fmt"
	"runtime"
	"testing"
)

// ShardedState is a forward to one LayerRunner (shard.go): its Layer
// must leave every amplitude EXACTLY equal to LayerRunner.Layer on a
// plain State, and its phase must see offset 0 and global chunk bounds.
func TestShardedLayerMatchesFlat(t *testing.T) {
	for _, n := range []int{14, 15, 16} {
		flat := randomParallelState(n, int64(100*n))
		runner := NewLayerRunner(flat)
		ss := NewShardedState(n, 2)
		copy(ss.s.amps, flat.amps)

		flatPhase := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				flat.amps[i] *= testPhaseFactor(i)
			}
		}
		fwdPhase := func(off, lo, hi int) {
			if off != 0 || lo < 0 || hi > len(ss.s.amps) || lo >= hi {
				t.Errorf("n=%d: phase called with off=%d [%d, %d)", n, off, lo, hi)
				return
			}
			for i := lo; i < hi; i++ {
				ss.s.amps[i] *= testPhaseFactor(i)
			}
		}
		// Two fused stages: mix on the loaded state, then (re)fill + mix,
		// so the first catches a forward that drops the state it holds.
		for pass, theta := range []float64{0.8134, -0.4271} {
			fill := pass == 1
			runner.Layer(theta, fill, flatPhase)
			ss.Layer(theta, fill, fwdPhase)
			ampsEqualExact(t, fmt.Sprintf("n=%d pass %d", n, pass), flat, ss.s, runtime.GOMAXPROCS(0))
		}
		ss.Close()
	}
}

// The mixer-only layer (nil phase), as the benchmark ladder calls it:
// whatever shardBits it is given, the forward must skip the phase and
// leave the RX sweep EXACTLY equal to the flat one, with and without a
// refill.
func TestShardExchangeMatchesFlatRX(t *testing.T) {
	for _, n := range []int{16, 17} {
		for _, sb := range []int{1, 2, 3} {
			flat := randomParallelState(n, int64(7*n+sb))
			runner := NewLayerRunner(flat)
			ss := NewShardedState(n, sb)
			copy(ss.s.amps, flat.amps)
			for pass, theta := range []float64{1.1543, -0.4271} {
				fill := pass == 1
				runner.Layer(theta, fill, nil)
				ss.Layer(theta, fill, nil)
				ampsEqualExact(t, fmt.Sprintf("n=%d sb=%d pass %d", n, sb, pass), flat, ss.s, sb)
			}
			ss.Close()
		}
	}
}

// A warm Layer with a phase dispatches only prebuilt closures.
func TestShardedLayerZeroAlloc(t *testing.T) {
	for _, n := range []int{16, 17} {
		ss := NewShardedState(n, 2)
		phase := func(off, lo, hi int) {
			amps := ss.s.amps
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
