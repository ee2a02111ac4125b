package quantum

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// Sharded-state bit-identity suite. The sharded representation is a
// pure memory-layout change: every amplitude must come out EXACTLY
// equal to the flat path — layers, reductions, mixer matrix elements —
// at every shard count and every GOMAXPROCS. All comparisons use ==.

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

var shardTestBits = []int{0, 1, 2, 3}

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
			if sb == 0 {
				continue
			}
			flat := randomParallelState(n, int64(7*n+sb))
			ss := shardedFromState(t, flat, sb)
			NewLayerRunner(flat).Layer(1.1543, false, nil)
			ss.Layer(1.1543, false, nil)
			ampsEqualExact(t, "exchange-only layer", flat, ss.gather(), sb)
		}
	}
}

func TestShardedReduceMatchesFlat(t *testing.T) {
	const n = 17
	body := func(amps []complex128, off, lo, hi int) (a, b float64) {
		for i := lo; i < hi; i++ {
			z := amps[i]
			a += real(z)*real(z) + imag(z)*imag(z)
			b += real(z) * float64((off+i)%7)
		}
		return a, b
	}
	for _, sb := range shardTestBits {
		withWorkers(t, identityWorkers, func() any {
			flat := randomParallelState(n, 55)
			ss := shardedFromState(t, flat, sb)
			fa, fb := ReduceChunks(len(flat.amps), func(lo, hi int) (float64, float64) {
				return body(flat.amps, 0, lo, hi)
			})
			sa, sbv := ss.Reduce(func(lo, hi int) (float64, float64) {
				off := lo &^ (ss.sdim - 1)
				return body(ss.shards[lo>>uint(ss.sbits)].amps, off, lo-off, hi-off)
			})
			if sa != fa || sbv != fb {
				t.Fatalf("shards=%d: sharded reduce (%v, %v) != flat (%v, %v)", 1<<sb, sa, sbv, fa, fb)
			}
			return [2]float64{fa, fb}
		}, func(t *testing.T, baseline, got any, w int) {
			if baseline.([2]float64) != got.([2]float64) {
				t.Fatalf("reduce differs at GOMAXPROCS=%d: %v != %v", w, got, baseline)
			}
		})
	}
}

func TestShardedSumXMatchesFlat(t *testing.T) {
	const n = 17
	for _, sb := range shardTestBits {
		withWorkers(t, identityWorkers, func() any {
			fs := randomParallelState(n, 91)
			ft := randomParallelState(n, 92)
			sss := shardedFromState(t, fs, sb)
			sst := shardedFromState(t, ft, sb)
			// The gradient reads Im⟨s|ΣX|t⟩ inside the two-state mixer
			// sweep: every shard count must agree with one shard bit for
			// bit, and with the public complex form to rounding.
			full := fs.InnerProductSumX(ft)
			m, _, _ := oneShardMixer(ft, fs, false)
			fi := m.Sweep(0.6)
			si := NewShardedReverseMixer(sst, sss).Sweep(0.6)
			if si != fi || math.Abs(fi-imag(full)) > 1e-12 {
				t.Fatalf("shards=%d: Im ΣX sharded %v, one shard %v, InnerProductSumX %v", 1<<sb, si, fi, imag(full))
			}
			return [3]float64{real(full), imag(full), fi}
		}, func(t *testing.T, baseline, got any, w int) {
			if baseline.([3]float64) != got.([3]float64) {
				t.Fatalf("ΣX differs at GOMAXPROCS=%d: %v != %v", w, got, baseline)
			}
		})
	}
}

// One shard is the register of every workspace below qaoa.ShardThreshold,
// so it has to be the flat engine and cost what a State costs: Layer,
// Reduce, FillUniform and the reverse sweep == LayerRunner, ReduceChunks
// and State.FillUniform on a plain State, and == themselves at every
// worker count (n = 17 runs on the chunk pool); no goroutine and no
// finalizer — a state dropped un-Closed is gone after one GC — and
// nothing allocated once warm.
func TestOneShardStateIsTheFlatEngine(t *testing.T) {
	const n = 17
	reduceBody := func(amps []complex128) func(lo, hi int) (a, b float64) {
		return func(lo, hi int) (a, b float64) {
			for i := lo; i < hi; i++ {
				z := amps[i]
				a += real(z)*real(z) + imag(z)*imag(z)
				b += real(z) * float64(i%7)
			}
			return a, b
		}
	}
	phaseBody := func(amps []complex128) func(lo, hi int) {
		return func(lo, hi int) {
			for i := lo; i < hi; i++ {
				amps[i] *= testPhaseFactor(i)
			}
		}
	}
	type result struct {
		phi, lam *State
		red      [2]float64
		sweep    float64
	}
	withWorkers(t, identityWorkers, func() any {
		flat, flatLam := randomParallelState(n, 171), randomParallelState(n, 172)
		before := runtime.NumGoroutine()
		phi, lam := loadSharded(flat, 0), loadSharded(flatLam, 0)
		if g := runtime.NumGoroutine(); g > before {
			t.Fatalf("two one-shard states started %d goroutines", g-before)
		}
		ph := phaseBody(phi.Shard(0).amps)
		phi.Layer(0.8134, false, func(off, lo, hi int) { ph(off+lo, off+hi) })
		var res result
		res.red[0], res.red[1] = phi.Reduce(reduceBody(phi.Shard(0).amps))
		res.sweep = NewShardedReverseMixer(phi, lam).Sweep(-0.41)
		res.phi, res.lam = phi.Shard(0), lam.Shard(0)

		w := runtime.GOMAXPROCS(0)
		r := NewLayerRunner(flat)
		r.Layer(0.8134, false, phaseBody(flat.amps))
		fa, fb := ReduceChunks(len(flat.amps), reduceBody(flat.amps))
		if res.red != [2]float64{fa, fb} {
			t.Fatalf("GOMAXPROCS=%d: Reduce %v != ReduceChunks (%v, %v)", w, res.red, fa, fb)
		}
		r.Layer(-0.41, false, nil)
		NewLayerRunner(flatLam).Layer(-0.41, false, nil)
		ampsEqualExact(t, "one-shard Layer + Sweep φ vs LayerRunner", flat, res.phi, w)
		ampsEqualExact(t, "one-shard Sweep λ vs LayerRunner", flatLam, res.lam, w)

		lam.FillUniform()
		ampsEqualExact(t, "one-shard FillUniform", NewUniformState(n), lam.Shard(0), w)
		return res
	}, func(t *testing.T, baseline, got any, w int) {
		b, g := baseline.(result), got.(result)
		if b.red != g.red || b.sweep != g.sweep {
			t.Fatalf("GOMAXPROCS=%d: Reduce %v, Sweep %v != %v, %v at 1", w, g.red, g.sweep, b.red, b.sweep)
		}
		ampsEqualExact(t, "one-shard φ across workers", b.phi, g.phi, w)
	})

	// Dropped without Close, the amplitudes go in the next collection. A
	// finalizer on the state would carry them through it, and the one set
	// here — finalizers run in dependency order — would wait a cycle.
	collected := make(chan struct{})
	func() {
		ss := NewShardedState(n, 0)
		runtime.SetFinalizer(&ss.shards[0].amps[0], func(*complex128) { close(collected) })
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(2 * time.Second):
		t.Fatal("a dropped one-shard state's amplitudes survived a GC: something still holds or finalizes it")
	}

	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	phi, lam := NewShardedState(n, 0), NewShardedState(n, 0)
	lam.FillUniform()
	m := NewShardedReverseMixer(phi, lam)
	ph, red := phaseBody(phi.Shard(0).amps), reduceBody(phi.Shard(0).amps)
	phase := func(off, lo, hi int) { ph(off+lo, off+hi) }
	var sink float64
	warm := func() {
		phi.Layer(0.3, true, phase)
		a, _ := phi.Reduce(red)
		sink += a + m.Sweep(-0.3)
	}
	warm() // the pool's job freelist
	if allocs := testing.AllocsPerRun(10, warm); allocs != 0 {
		t.Fatalf("warm Layer + Reduce + Sweep on one shard allocate %v times per run", allocs)
	}
	_ = sink
}

func TestShardedFillUniformAndAccessors(t *testing.T) {
	ss := NewShardedState(16, 2)
	defer ss.Close()
	if ss.NumQubits() != 16 || ss.Dim() != 1<<16 || ss.NumShards() != 4 || ss.ShardDim() != 1<<14 {
		t.Fatalf("accessors: n=%d dim=%d shards=%d sdim=%d", ss.NumQubits(), ss.Dim(), ss.NumShards(), ss.ShardDim())
	}
	if ss.Amplitude(0) != 1 || ss.Amplitude(1<<15) != 0 {
		t.Fatalf("fresh state is not |0…0⟩: amp(0)=%v amp(2^15)=%v", ss.Amplitude(0), ss.Amplitude(1<<15))
	}
	ss.FillUniform()
	want := complex(1/math.Sqrt(float64(1<<16)), 0)
	for _, idx := range []uint64{0, 1 << 13, 1<<16 - 1} {
		if ss.Amplitude(idx) != want {
			t.Fatalf("FillUniform: amp(%d) = %v, want %v", idx, ss.Amplitude(idx), want)
		}
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
