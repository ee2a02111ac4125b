package optimize

import (
	"context"
	"math/rand"
	"testing"
)

// Every optimizer allocates its buffers once per run, not per iteration:
// a run stopped after 500 calls (objective or gradient) allocates
// exactly as often as one stopped after 50. The objective is Rosenbrock
// at a tolerance no run meets, and the call that spends the budget
// cancels the run's context, so both runs leave by the same exit. The
// gradient-based optimizers run in 20 dimensions, where they take more
// than 500 calls to stall.
func TestRunAllocsIndependentOfIterations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, c := range []struct {
		opt Optimizer
		n   int
	}{
		{&NelderMead{Tol: 1e-300}, 10},
		{&COBYLA{Tol: 1e-300}, 10},
		{&LBFGSB{Tol: 1e-300}, 20},
		{&SLSQP{Tol: 1e-300}, 20},
	} {
		b := uniformBounds(c.n, -2, 2)
		x0 := b.Random(rand.New(rand.NewSource(4)))
		allocs := func(budget int) float64 {
			var r Result
			a := testing.AllocsPerRun(3, func() {
				ctx, cancel := context.WithCancel(context.Background())
				calls := 0
				spend := func() {
					if calls++; calls == budget {
						cancel()
					}
				}
				p := Problem{X0: x0, Bounds: b, F: func(x []float64) float64 {
					spend()
					return rosenbrockND(x)
				}, Grad: func(x, g []float64) {
					spend()
					rosenbrockNDGrad(x, g)
				}}
				r = Run(ctx, p, Options{Optimizer: c.opt})
				cancel()
			})
			if r.Status != Cancelled {
				t.Fatalf("%s n=%d: stopped before the %d-call budget: %s", c.opt.Name(), c.n, budget, r.Message)
			}
			return a
		}
		if a50, a500 := allocs(50), allocs(500); a50 != a500 {
			t.Errorf("%s n=%d: %v allocations per run at 50 calls, %v at 500", c.opt.Name(), c.n, a50, a500)
		}
	}
}
