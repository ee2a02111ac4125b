package optimize

import (
	"math"
	"testing"
)

// The workspace gradient is the central-difference formula written out
// below, bit for bit — including at box faces, where steps shrink, and
// on a degenerate lo == hi coordinate, which gets 0 and no probes — and
// it approximates the analytic gradient in the interior.
func TestGradientWorkspaceMatchesGradient(t *testing.T) {
	b := &Bounds{Lo: []float64{-1, 0, 0.5}, Hi: []float64{1, 0.7, 0.5}}
	center := []float64{0.1, 0.2, 0.3}
	f := sphere(center)
	reference := func(x []float64) []float64 {
		g := make([]float64, len(x))
		for i := range x {
			hp, hm := 1e-6, 1e-6
			if x[i]+hp > b.Hi[i] {
				hp = b.Hi[i] - x[i]
			}
			if x[i]-hm < b.Lo[i] {
				hm = x[i] - b.Lo[i]
			}
			if hp+hm == 0 {
				continue
			}
			xp := append([]float64(nil), x...)
			xp[i] = x[i] + hp
			fp := f(xp)
			xp[i] = x[i] - hm
			g[i] = (fp - f(xp)) / (hp + hm)
		}
		return g
	}
	ws := NewGradientWorkspace(3)
	dst := make([]float64, 3)
	for _, x := range [][]float64{
		{0.2, 0.3, 0.5},
		{1, 0.7, 0.5},              // at upper faces
		{-1, 0, 0.5},               // at lower faces
		{0.999999, 0.0000005, 0.5}, // within one step of the faces
	} {
		calls := 0
		got := ws.Gradient(dst, func(x []float64) float64 { calls++; return f(x) }, x, b)
		want := reference(x)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("at %v: grad[%d] = %v, reference %v", x, i, got[i], want[i])
			}
			if x[i] > b.Lo[i] && x[i] < b.Hi[i] && math.Abs(got[i]-2*(x[i]-center[i])) > 1e-6 {
				t.Errorf("at %v: grad[%d] = %v, analytic %v", x, i, got[i], 2*(x[i]-center[i]))
			}
		}
		if calls != 4 {
			t.Errorf("at %v: %d probes, want 4 (two per free coordinate)", x, calls)
		}
	}
}

// Central differences, the one scheme left (forward differences are
// gone), recover the gradient of a quadratic-plus-linear objective.
func TestGradientCentralAndForward(t *testing.T) {
	f := func(x []float64) float64 { return x[0]*x[0] + 3*x[1] }
	x := []float64{1.5, -2}
	b := UniformBounds(2, -10, 10)
	g := NewGradientWorkspace(2).Gradient(make([]float64, 2), f, x, b)
	if math.Abs(g[0]-3) > 1e-4 || math.Abs(g[1]-3) > 1e-4 {
		t.Errorf("central gradient = %v, want [3 3]", g)
	}
}

// At the upper face every probe stays inside the box.
func TestGradientAtBoundary(t *testing.T) {
	b := UniformBounds(1, 0, 1)
	calls := 0
	f := func(x []float64) float64 {
		calls++
		if !b.Contains(x) {
			t.Fatalf("gradient probed out-of-bounds point %v", x)
		}
		return 2 * x[0]
	}
	g := NewGradientWorkspace(1).Gradient(make([]float64, 1), f, []float64{1}, b)
	if math.Abs(g[0]-2) > 1e-4 {
		t.Errorf("boundary central gradient = %v", g)
	}
	if calls == 0 {
		t.Fatal("gradient made no calls")
	}
}

// A reused workspace gradient must not allocate.
func TestGradientWorkspaceZeroAllocs(t *testing.T) {
	f := sphere([]float64{0.1, -0.4, 0.2, 0.6})
	b := UniformBounds(4, -2, 2)
	x := []float64{0.5, 0.5, -0.5, 1}
	ws := NewGradientWorkspace(4)
	dst := make([]float64, 4)
	ws.Gradient(dst, f, x, b)
	if allocs := testing.AllocsPerRun(50, func() {
		ws.Gradient(dst, f, x, b)
	}); allocs != 0 {
		t.Errorf("reused workspace Gradient allocates %v objects per call, want 0", allocs)
	}
}
