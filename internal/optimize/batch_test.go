package optimize

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// resultsEqual compares two Results for exact (bit-for-bit) equality.
func resultsEqual(a, b Result) bool {
	return reflect.DeepEqual(a.X, b.X) && a.F == b.F && a.NFev == b.NFev &&
		a.Iters == b.Iters && a.Converged == b.Converged && a.Message == b.Message
}

// inOrder evaluates a batch the way serial code would: point by point.
func inOrder(f Func) BatchFunc {
	return func(points [][]float64) []float64 {
		out := make([]float64, len(points))
		for i, x := range points {
			out[i] = f(x)
		}
		return out
	}
}

// countingBatch is inOrder recording how many batches and points flowed
// through it.
type countingBatch struct {
	f       Func
	batches int
	points  int
}

func (c *countingBatch) eval(points [][]float64) []float64 {
	c.batches++
	c.points += len(points)
	return inOrder(c.f)(points)
}

// Run with Problem.Batch must reproduce Run without it exactly — same
// point, value, iteration count, NFev and message — for every optimizer,
// scheme, objective and start, because the batched probes are the same
// points the serial path evaluates. The finite-difference optimizers
// must send their stencils through it; the derivative-free ones have no
// probes and must ignore it.
func TestRunWithBatchIsBitIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objectives := []struct {
		name   string
		f      Func
		starts [][]float64
		b      *Bounds
	}{
		{"sphere", sphere([]float64{0.3, -0.2}), [][]float64{{-1, 1}}, UniformBounds(2, -2, 2)},
		{"rosenbrock", rosenbrock, [][]float64{{-1.2, 1}}, UniformBounds(2, -2, 2)},
		{"qaoa-like", qaoaLike, [][]float64{{0.3, 0.4}}, UniformBounds(2, 0, math.Pi)},
	}
	for i := range objectives {
		// A multistart's worth of random starts per objective.
		for k := 0; k < 5; k++ {
			objectives[i].starts = append(objectives[i].starts, objectives[i].b.Random(rng))
		}
	}
	for _, scheme := range []FDScheme{CentralDiff, ForwardDiff} {
		opts := []struct {
			opt    Optimizer
			probes bool
		}{
			{&LBFGSB{Scheme: scheme}, true},
			{&SLSQP{Scheme: scheme}, true},
			{&NelderMead{}, false},
			{&COBYLA{}, false},
		}
		for _, o := range opts {
			for _, obj := range objectives {
				for _, x0 := range obj.starts {
					label := fmt.Sprintf("%s/%s/%s from %v", o.opt.Name(), scheme, obj.name, x0)
					serial := Run(context.Background(), Problem{F: obj.f, X0: x0, Bounds: obj.b}, Options{Optimizer: o.opt})
					cb := &countingBatch{f: obj.f}
					batched := Run(context.Background(), Problem{F: obj.f, Batch: cb.eval, X0: x0, Bounds: obj.b}, Options{Optimizer: o.opt})
					if !resultsEqual(serial, batched) {
						t.Errorf("%s: batch result %+v != serial %+v", label, batched, serial)
					}
					if got := cb.batches > 0; got != o.probes {
						t.Errorf("%s: batch objective consulted %d times", label, cb.batches)
					}
				}
			}
		}
	}
}

// The workspace gradient must agree bit-for-bit with the package-level
// Gradient, and GradientBatch with both, for both schemes — including
// at box faces where steps shrink or flip.
func TestGradientWorkspaceMatchesGradient(t *testing.T) {
	b := &Bounds{Lo: []float64{-1, 0, 0.5}, Hi: []float64{1, 0.7, 0.5}}
	xs := [][]float64{
		{0.2, 0.3, 0.5},
		{1, 0.7, 0.5},              // at upper faces (and degenerate lo==hi coordinate)
		{-1, 0, 0.5},               // at lower faces
		{0.999999, 0.0000005, 0.5}, // within one step of the faces
	}
	f := sphere([]float64{0.1, 0.2, 0.3})
	ws := NewGradientWorkspace(3)
	dst := make([]float64, 3)
	for _, scheme := range []FDScheme{CentralDiff, ForwardDiff} {
		for _, x := range xs {
			for _, fx := range []float64{f(x), math.NaN()} {
				want := Gradient(f, x, fx, b, scheme, 0)
				got := ws.Gradient(dst, f, x, fx, b, scheme, 0)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s at %v: workspace %v != package %v", scheme, x, got, want)
				}
				cnt := &counter{f: f}
				bdst := make([]float64, 3)
				_, nev := ws.GradientBatch(bdst, inOrder(cnt.call), x, fx, b, scheme, 0)
				if !reflect.DeepEqual(want, bdst) {
					t.Errorf("%s at %v: batch %v != serial %v", scheme, x, bdst, want)
				}
				if nev != cnt.n {
					t.Errorf("%s at %v: reported %d evals, objective saw %d", scheme, x, nev, cnt.n)
				}
			}
		}
	}
}

// A reused workspace gradient must not allocate.
func TestGradientWorkspaceZeroAllocs(t *testing.T) {
	f := sphere([]float64{0.1, -0.4, 0.2, 0.6})
	b := UniformBounds(4, -2, 2)
	x := []float64{0.5, 0.5, -0.5, 1}
	ws := NewGradientWorkspace(4)
	dst := make([]float64, 4)
	ws.Gradient(dst, f, x, math.NaN(), b, CentralDiff, 0)
	if allocs := testing.AllocsPerRun(50, func() {
		ws.Gradient(dst, f, x, math.NaN(), b, CentralDiff, 0)
	}); allocs != 0 {
		t.Errorf("reused workspace Gradient allocates %v objects per call, want 0", allocs)
	}
}
