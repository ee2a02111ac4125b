package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"testing"
)

// Differential suite for the half-register mirror pass (mirror.go). The
// oracle is the full register evolved gate by gate (State.RX, which
// shares no code with the fused sweeps) from the mirrored copy of the
// same amplitudes — unscaled, the maps being linear — and, for the ΣX
// term, InnerProductSumX on those full states. Across layouts and
// worker counts the half register is compared with itself by ==.

// testPhaseFactor is a deterministic per-amplitude phase, a pure
// function of the global basis index, so a chunk-bounds bug shows up as
// an amplitude mismatch.
func testPhaseFactor(i int) complex128 {
	sin, cos := math.Sincos(0.37 * float64(i%23))
	return complex(cos, sin)
}

// mirrorFull returns the (n+1)-qubit X-symmetric state whose lower half
// is h, amplitude for amplitude (no 1/√2).
func mirrorFull(h *State) *State {
	full := NewState(h.n + 1)
	top := len(full.amps) - 1
	for z, a := range h.amps {
		full.amps[z], full.amps[top-z] = a, a
	}
	return full
}

// halfMatchesFull checks the half register against the lower half of
// the full one, and the full one for having stayed symmetric.
func halfMatchesFull(t *testing.T, label string, half, full *State) {
	t.Helper()
	top := len(full.amps) - 1
	for z, a := range half.amps {
		if d := cmplx.Abs(a - full.amps[z]); d > 1e-13*(1+cmplx.Abs(a)) {
			t.Fatalf("%s: amplitude %d = %v, full register has %v (|Δ| = %g)", label, z, a, full.amps[z], d)
		}
		if d := cmplx.Abs(full.amps[z] - full.amps[top-z]); d > 1e-13*(1+cmplx.Abs(a)) {
			t.Fatalf("%s: oracle lost the symmetry at %d (|Δ| = %g)", label, z, d)
		}
	}
}

// mirrorTestWidths are half-register widths: 1 (the mirror partner is
// the RX partner, nothing fuses), 2 (even, lone mirror pairs), 3 (the
// smallest fused quadruples), odd and even single-chunk widths, 14 and
// 15 (multi-chunk below the parallel threshold) and 16 (on the pool).
func mirrorTestWidths() []int {
	if testing.Short() {
		return []int{1, 2, 3, 4, 5, 8, 13, 14, 15}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15, 16}
}

func TestMirrorLayerMatchesFullRegister(t *testing.T) {
	for _, n := range mirrorTestWidths() {
		for ti, theta := range kernelTestThetas {
			if n > 13 && ti != 1 && ti != 4 {
				continue
			}
			seed := int64(9000*n + 10*ti)
			label := fmt.Sprintf("half n=%d θ=%v", n, theta)

			h0 := NewState(n)
			copy(h0.amps, kernelTestAmps(n, seed))
			full := mirrorFull(h0)
			for q := 0; q <= n; q++ {
				full.RX(q, theta)
			}

			workers := identityWorkers
			if 1<<uint(n) < ParallelDim {
				workers = workers[:1]
			}
			withWorkers(t, workers, func() any {
				h := h0.Clone()
				r := NewLayerRunner(h)
				r.SetMirror(true)
				r.Layer(theta, false, nil)
				halfMatchesFull(t, label, h, full)
				return h
			}, func(t *testing.T, baseline, got any, w int) {
				ampsEqualExact(t, label+" across workers", baseline.(*State), got.(*State), w)
			})
		}
	}
}

// Fill and phase run over the half register's own chunk ranges, and a
// runner switched back to a full register must not keep the pass.
func TestMirrorLayerFillPhaseAndReset(t *testing.T) {
	for _, n := range []int{1, 4, 7, 14, 15} {
		label := fmt.Sprintf("half n=%d", n)
		full := NewUniformState(n + 1)
		top := len(full.amps) - 1
		for z := 0; z < 1<<uint(n); z++ {
			f := testPhaseFactor(z)
			full.amps[z] *= f
			full.amps[top-z] *= f
		}
		for q := 0; q <= n; q++ {
			full.RX(q, 0.8134)
		}
		// The half register carries √2 of the full amplitudes.
		for i := range full.amps {
			full.amps[i] *= math.Sqrt2
		}

		h := NewState(n)
		r := NewLayerRunner(h)
		r.SetMirror(true)
		r.Layer(0.8134, true, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				h.amps[i] *= testPhaseFactor(i)
			}
		})
		halfMatchesFull(t, label, h, full)
		if d := math.Abs(h.Norm() - 1); d > 1e-13 {
			t.Fatalf("%s: half register norm off by %g", label, d)
		}
		u := h.UnfoldMirror()
		for z, a := range u.amps {
			if d := cmplx.Abs(a*math.Sqrt2 - full.amps[z]); d > 1e-13 {
				t.Fatalf("%s: UnfoldMirror amplitude %d off by %g", label, z, d)
			}
		}

		plain := NewState(n)
		copy(plain.amps, kernelTestAmps(n, 3))
		want := plain.Clone()
		NewLayerRunner(want).Layer(0.4, false, nil)
		r2 := NewLayerRunner(plain)
		r2.SetMirror(true)
		r2.SetMirror(false)
		r2.Layer(0.4, false, nil)
		ampsEqualExact(t, label+" after SetMirror(false)", want, plain, 0)
	}
}

// Any split of the representative range writes the same amplitudes as
// one call: the property the parallel dispatch rests on.
func TestMirrorRangeSplits(t *testing.T) {
	k := newRXCoef(0.8342)
	for _, n := range []int{2, 3, 6, 9} {
		want := kernelTestAmps(n, int64(n))
		reps := mirrorReps(n)
		mirrorRange(want, n, 0, reps, k)
		got := kernelTestAmps(n, int64(n))
		cut := reps / 3
		mirrorRange(got, n, cut, reps, k)
		mirrorRange(got, n, 0, cut, k)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("half n=%d: split pass differs at %d: %v != %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestMirrorReverseMixerMatchesLayerAndOracle(t *testing.T) {
	for _, n := range mirrorTestWidths() {
		for ti, theta := range kernelTestThetas {
			if n > 13 && ti != 1 && ti != 4 {
				continue
			}
			seed := int64(7000*n + 10*ti)
			label := fmt.Sprintf("half n=%d θ=%v", n, theta)

			phi0, lam0 := reverseTestPair(n, seed)
			// Both full states carry the half amplitudes unscaled, so the
			// full matrix element is twice the half register's.
			oracle := imag(mirrorFull(lam0).InnerProductSumX(mirrorFull(phi0))) / 2
			for _, s := range []*State{phi0, lam0} {
				r := NewLayerRunner(s)
				r.SetMirror(true)
				r.Layer(theta, false, nil)
			}

			workers := identityWorkers
			if 1<<uint(n) < ParallelDim {
				workers = workers[:1]
			}
			withWorkers(t, workers, func() any {
				phi, lam := reverseTestPair(n, seed)
				got := testMixer(phi, lam, true).Sweep(theta)
				ampsEqualExact(t, label+" φ", phi0, phi, runtime.GOMAXPROCS(0))
				ampsEqualExact(t, label+" λ", lam0, lam, runtime.GOMAXPROCS(0))
				if d := math.Abs(got - oracle); d > 1e-12*(1+math.Abs(oracle)) {
					t.Fatalf("%s: Sweep = %v, Im InnerProductSumX/2 = %v (|Δ| = %g)", label, got, oracle, d)
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

func TestMirrorSweepsZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	var sink float64
	for _, n := range []int{7, 16} {
		phi, lam := reverseTestPair(n, 78)
		r := NewLayerRunner(phi)
		r.SetMirror(true)
		m := testMixer(phi, lam, true)
		r.Layer(0.3, false, nil) // warm the pool's job freelist
		sink += m.Sweep(0.3)
		if allocs := testing.AllocsPerRun(10, func() {
			r.Layer(0.3, false, nil)
			sink += m.Sweep(-0.3)
		}); allocs != 0 {
			t.Fatalf("half n=%d: mirror sweeps allocate %v times per run", n, allocs)
		}
	}
	_ = sink
}
