package quantum

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The chunk length is a pure function of the dimension: 2^13 below 2^20
// amplitudes, 2^15 at and above — never a function of GOMAXPROCS.
func TestChunkGeometry(t *testing.T) {
	cases := []struct{ dim, clen, count int }{
		{1 << 10, ReduceChunkLen, 1},
		{1 << 13, ReduceChunkLen, 1},
		{1 << 14, ReduceChunkLen, 2},
		{1 << 19, ReduceChunkLen, 1 << 6},
		{1 << 20, LargeReduceChunkLen, 1 << 5},
		{1 << 24, LargeReduceChunkLen, 1 << 9},
	}
	for _, c := range cases {
		if got := ChunkLen(c.dim); got != c.clen {
			t.Errorf("ChunkLen(%d) = %d, want %d", c.dim, got, c.clen)
		}
		if got := reduceChunkCount(c.dim); got != c.count {
			t.Errorf("reduceChunkCount(%d) = %d, want %d", c.dim, got, c.count)
		}
	}
}

// The worker pool's goroutines are persistent: any number of kernel
// dispatches after warm-up must leave the goroutine count unchanged.
// (The old per-call fan-out spawned and tore down GOMAXPROCS goroutines
// per pass; this pins the replacement behavior.) The dispatches are the
// engine's: a fused layer sweep and a chunked expectation at n = 17.
func TestPoolNoGoroutineLeak(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(8)

	s := randomParallelState(17, 9)
	r := NewLayerRunner(s)
	diag := randomDiag(s.Dim(), 10)
	step := func() {
		r.Layer(0.1, false, nil)
		s.ExpectationDiagonal(diag)
	}
	for i := 0; i < 4; i++ { // warm: spawn whatever workers will exist
		step()
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		step()
	}
	after := runtime.NumGoroutine()
	if after > before {
		t.Fatalf("goroutine count grew across 100 dispatches: %d -> %d", before, after)
	}
}

// Dispatch must execute every chunk exactly once, whoever claims it.
func TestDispatchCoversEveryChunkOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(8)

	const nc, clen = 64, 128
	marks := make([]int32, nc*clen)
	for round := 0; round < 20; round++ {
		dispatchChunks(nc, clen, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				marks[i]++
			}
		})
	}
	for i, m := range marks {
		if m != 20 {
			t.Fatalf("element %d executed %d times, want 20", i, m)
		}
	}
}

// Layers and reductions from many goroutines share one pool; results
// must equal the serial references — RXAll, and the chunk partials
// folded in order — and the dispatch must not deadlock when every
// worker is busy.
func TestConcurrentReductionsSharedPool(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(8)

	const theta = 0.61
	src := randomParallelState(17, 12)
	diag := randomDiag(src.Dim(), 13)
	layered := src.Clone()
	layered.RXAll(theta)
	var wantE float64
	for lo, clen := 0, ChunkLen(len(diag)); lo < len(diag); lo += clen {
		wantE += layered.ExpectationDiagonalRange(lo, diag[lo:lo+clen])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := src.Clone()
			r := NewLayerRunner(s)
			for i := 0; i < 3; i++ {
				copy(s.amps, src.amps)
				r.Layer(theta, false, nil)
				for k := range s.amps {
					if s.amps[k] != layered.amps[k] {
						errs <- fmt.Errorf("concurrent Layer: amplitude %d = %v, serial RXAll %v", k, s.amps[k], layered.amps[k])
						return
					}
				}
				for j := 0; j < 8; j++ {
					if got := s.ExpectationDiagonal(diag); got != wantE {
						errs <- fmt.Errorf("concurrent ExpectationDiagonal %v, chunk-ordered fold %v", got, wantE)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// randomDiag returns a deterministic pseudo-random diagonal of length dim.
func randomDiag(dim int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	d := make([]float64, dim)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return d
}
