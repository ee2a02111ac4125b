package optimize

import (
	"math"
	"testing"
)

// scripted is an objective that returns its values in turn, whatever x,
// and records every point it was called at.
type scripted struct {
	vals []float64
	xs   [][]float64
}

func (s *scripted) f(x []float64) float64 {
	s.xs = append(s.xs, append([]float64(nil), x...))
	v := s.vals[0]
	if len(s.vals) > 1 {
		s.vals = s.vals[1:]
	}
	return v
}

// On an exact 1-D quadratic, f(x) = (x − 1)² from x = 0 along d = 5, the
// first trial (x = 5) fails and the second lands on the parabola's
// minimizer, x = 1, where the search accepts.
func TestLineSearchSecondTrialAtQuadraticMinimizer(t *testing.T) {
	var xs []float64
	cnt := &counter{f: func(x []float64) float64 {
		xs = append(xs, x[0])
		return (x[0] - 1) * (x[0] - 1)
	}}
	b := uniformBounds(1, -10, 10)
	x, xt := []float64{0}, []float64{0}
	fNew, alpha, ok := lineSearch(cnt, b, x, 1, []float64{-2}, []float64{5}, xt, 100)
	if !ok || len(xs) != 2 || xs[0] != 5 || math.Abs(xs[1]-1) > 1e-15 {
		t.Fatalf("ok=%v, trials at %v; want two trials, at 5 and at 1", ok, xs)
	}
	if math.Abs(alpha-0.2) > 1e-15 || fNew > 1e-30 || xt[0] != xs[1] {
		t.Errorf("accepted α=%v f=%v xt=%v, want α=0.2 f=0 at the second trial", alpha, fNew, xt)
	}
}

// A failed trial scales α by the interpolated minimizer, clamped to
// [0.1, 0.5], and by 0.5 when the slope is no descent or the trial's
// value leaves no positive finite curvature. Each case starts at x = 0
// with f(x) = 1 along d = 1 and scripts the first trial's value; the
// second trial, which the script accepts, shows the factor.
func TestLineSearchShrinkFactor(t *testing.T) {
	for _, c := range []struct {
		name  string
		g, ft float64 // slope is g·1 on the first trial
		want  float64 // α of the second trial
	}{
		{"interpolated", -1, 2.5, 0.2},            // q = 1 − t + 2.5t², t* = 0.2
		{"clamped below", -1, 1e6, shrinkMin},     // t* ≈ 5e-7
		{"clamped above", -1, 0.99995, shrinkMax}, // t* ≈ 0.500025, Armijo still fails
		{"no descent", 1, 2, 0.5},
		{"zero slope", 0, 2, 0.5},
		{"NaN", -1, math.NaN(), 0.5},
		{"+Inf", -1, math.Inf(1), 0.5},
	} {
		s := &scripted{vals: []float64{c.ft, -1}}
		cnt := &counter{f: s.f}
		x, xt := []float64{0}, []float64{0}
		_, alpha, ok := lineSearch(cnt, uniformBounds(1, -10, 10), x, 1, []float64{c.g}, []float64{1}, xt, 100)
		if !ok || len(s.xs) != 2 {
			t.Fatalf("%s: ok=%v after %d calls, want acceptance at the second", c.name, ok, len(s.xs))
		}
		if math.Abs(alpha-c.want) > 1e-15 || s.xs[1][0] != alpha {
			t.Errorf("%s: second trial at α=%v (x=%v), want %v", c.name, alpha, s.xs[1][0], c.want)
		}
	}
	// Curvature ≤ 0 cannot follow a failed Armijo test with a descent
	// slope, so shrinkFactor is asked directly.
	if got := shrinkFactor(1, -1, -0.5); got != shrinkMax {
		t.Errorf("non-positive curvature: factor %v, want %v", got, shrinkMax)
	}
}

// A search whose clipped step does not move x makes no call.
func TestLineSearchNoCallWhenClippedStepStays(t *testing.T) {
	s := &scripted{vals: []float64{0}}
	cnt := &counter{f: s.f}
	b := uniformBounds(2, 0, 1)
	x, xt := []float64{1, 0}, make([]float64, 2)
	if _, _, ok := lineSearch(cnt, b, x, 1, []float64{-1, 1}, []float64{1, -1}, xt, 100); ok || cnt.n != 0 {
		t.Errorf("ok=%v after %d calls, want a failure with no call", ok, cnt.n)
	}
}

// The search stops at maxFev calls, counted from the counter's start,
// and after lineSearchTries trials at the latest.
func TestLineSearchRespectsBudgets(t *testing.T) {
	for _, c := range []struct{ start, maxFev, want int }{
		{5, 8, 3},
		{0, 1000, lineSearchTries},
		{7, 7, 0},
	} {
		s := &scripted{vals: []float64{math.NaN()}}
		cnt := &counter{f: s.f, n: c.start}
		x, xt := []float64{0}, []float64{0}
		if _, _, ok := lineSearch(cnt, uniformBounds(1, -10, 10), x, 1, []float64{-1}, []float64{1}, xt, c.maxFev); ok || len(s.xs) != c.want {
			t.Errorf("from %d calls with maxFev %d: ok=%v after %d calls, want a failure after %d", c.start, c.maxFev, ok, len(s.xs), c.want)
		}
	}
}
