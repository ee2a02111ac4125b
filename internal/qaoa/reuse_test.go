package qaoa

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
)

// State reuse: ValueGrad(x) directly after an evaluation at x on the
// same workspace skips the forward pass, with results bit-identical to
// a cold ValueGrad(x); every other sequence recomputes. forwardPasses
// counts runLayers calls, so each case pins both the numbers and
// whether a pass was run.

// reuseCase builds workspaces of one kernel × layout, all drawing from
// the arena handed in (nil: plain ownership).
type reuseCase struct {
	name string
	k    costKernel
	new  func(a *Arena) *EvalWorkspace
}

func reuseCases(t *testing.T) []reuseCase {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	flat := func(k costKernel) func(*Arena) *EvalWorkspace {
		return func(a *Arena) *EvalWorkspace { return newFlatWorkspace(k, a) }
	}
	diag := mustProblem(t, graph.RandomRegular(8, 3, rng)).kernel()
	mc := mustProblem(t, graph.RandomRegular(14, 3, rng)).kernel()
	is := mustIsing(t, problem.RandomIsing(14, rng)).kernel()
	if _, ok := diag.(*diagKernel); !ok {
		t.Fatalf("n=8 kernel is %T, want *diagKernel", diag)
	}
	if _, ok := mc.(*streamKernel); !ok {
		t.Fatalf("n=14 MaxCut kernel is %T, want *streamKernel", mc)
	}
	if _, ok := is.(*isingStreamKernel); !ok {
		t.Fatalf("n=14 Ising kernel is %T, want *isingStreamKernel", is)
	}
	return []reuseCase{
		{"materialized", diag, flat(diag)},
		{"maxcut-stream", mc, flat(mc)},
		{"ising-stream", is, flat(is)},
		{"sharded", mc, func(a *Arena) *EvalWorkspace { return newShardedWorkspace(mc, 1, a) }},
	}
}

func TestStateReuse(t *testing.T) {
	const p = 3
	x := testParams(p).Vector()
	y := append([]float64(nil), x...)
	y[p] += 0.25
	for _, c := range reuseCases(t) {
		t.Run(c.name, func(t *testing.T) {
			cold := c.new(nil)
			defer cold.Close()
			want := make([]float64, 2*p)
			wantVal := cold.ValueGrad(x, want)

			// gradAt runs ValueGrad(x) on ws, pins it to the cold result
			// and returns how many forward passes it made.
			got := make([]float64, 2*p)
			gradAt := func(label string, ws *EvalWorkspace) int {
				t.Helper()
				before := ws.forwardPasses
				if val := ws.ValueGrad(x, got); val != wantVal {
					t.Errorf("%s: value %v != cold %v", label, val, wantVal)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s: grad[%d] = %v != cold %v", label, i, got[i], want[i])
					}
				}
				return ws.forwardPasses - before
			}

			ws := c.new(nil)
			defer ws.Close()
			ws.ExpectationVec(x)
			if n := gradAt("Expectation(x)→ValueGrad(x)", ws); n != 0 {
				t.Errorf("Expectation(x)→ValueGrad(x) ran %d forward passes, want 0", n)
			}
			if n := gradAt("ValueGrad(x)→ValueGrad(x)", ws); n != 1 {
				t.Errorf("ValueGrad(x)→ValueGrad(x) ran %d forward passes, want 1", n)
			}
			before := ws.forwardPasses
			if e := ws.ExpectationVec(x); e != wantVal || ws.forwardPasses != before+1 {
				t.Errorf("ValueGrad(x)→Expectation(x) = %v after %d passes, want %v after 1", e, ws.forwardPasses-before, wantVal)
			}
			before = ws.forwardPasses
			if e := ws.ExpectationVec(x); e != wantVal || ws.forwardPasses != before+1 {
				t.Errorf("Expectation(x)→Expectation(x) = %v after %d passes, want %v after 1", e, ws.forwardPasses-before, wantVal)
			}
			ws.ExpectationVec(y)
			if n := gradAt("Expectation(x)→Expectation(y)→ValueGrad(x)", ws); n != 1 {
				t.Errorf("Expectation(y)→ValueGrad(x) ran %d forward passes, want 1", n)
			}

			// Depth change: the state held is depth 2, built from x's own
			// leading angles.
			ws.ExpectationVec([]float64{x[0], x[1], x[p], x[p+1]})
			if n := gradAt("depth 2→ValueGrad(depth 3)", ws); n != 1 {
				t.Errorf("depth change ran %d forward passes, want 1", n)
			}

			// A NaN component never matches itself.
			bad := append([]float64(nil), x...)
			bad[1] = math.NaN()
			ws.ExpectationVec(bad)
			before = ws.forwardPasses
			ws.ValueGrad(bad, got)
			if ws.forwardPasses != before+1 {
				t.Errorf("Expectation(NaN)→ValueGrad(NaN) ran %d forward passes, want 1", ws.forwardPasses-before)
			}

			// An arena-recycled buffer still holds |ψ(x)⟩, but the new
			// workspace never prepared it.
			a := NewArena(0)
			defer a.Close()
			first := c.new(a)
			first.ExpectationVec(x)
			first.Release()
			second := c.new(a)
			defer second.Release()
			if a.Stats().Hits == 0 {
				t.Fatal("arena did not recycle the state buffer")
			}
			if n := gradAt("arena-recycled buffer", second); n != 1 {
				t.Errorf("arena-recycled buffer ran %d forward passes, want 1", n)
			}
		})
	}
}

// The optimizers ask for every gradient at the point their line search
// just evaluated, so a whole run makes one forward pass per function
// evaluation and none per gradient (NFev + NGev without the reuse).
func TestStateReuseOptimizerRuns(t *testing.T) {
	pb := mustProblem(t, graph.RandomRegular(8, 3, rand.New(rand.NewSource(5))))
	const p = 3
	lo, hi := make([]float64, 2*p), make([]float64, 2*p)
	for i := 0; i < p; i++ {
		hi[i], hi[p+i] = GammaMax, BetaMax
	}
	bounds := optimize.NewBounds(lo, hi)
	x0 := testParams(p).Vector()
	for _, opt := range []optimize.Optimizer{&optimize.LBFGSB{}, &optimize.SLSQP{}} {
		ev := NewEvaluator(pb, p)
		r := optimize.Run(context.Background(),
			optimize.Problem{F: ev.NegExpectation, Grad: ev.NegGrad, X0: x0, Bounds: bounds},
			optimize.Options{Optimizer: opt})
		if r.NGev < 2 || r.NFev != ev.NFev() || r.NGev != ev.NGev() {
			t.Fatalf("%s: NFev %d (evaluator %d), NGev %d (evaluator %d)", opt.Name(), r.NFev, ev.NFev(), r.NGev, ev.NGev())
		}
		if got := ev.ForwardPasses(); got != r.NFev {
			t.Errorf("%s: %d forward passes for NFev = %d, NGev = %d; want one per function evaluation", opt.Name(), got, r.NFev, r.NGev)
		}
	}
}

// The reuse path is the optimizer's steady state: evaluate, then ask
// for the gradient there. It must allocate nothing once warm.
func TestStateReuseZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range reuseCases(t) {
		ws := c.new(nil)
		x := testParams(2).Vector()
		grad := make([]float64, len(x))
		ws.ExpectationVec(x)
		ws.ValueGrad(x, grad) // warm-up: adjoint buffer, held-angle record
		before := ws.forwardPasses
		if allocs := testing.AllocsPerRun(20, func() {
			ws.ExpectationVec(x)
			ws.ValueGrad(x, grad)
		}); allocs != 0 {
			t.Errorf("%s: Expectation(x)→ValueGrad(x) allocates %v times per run", c.name, allocs)
		}
		if got := ws.forwardPasses - before; got != 21 {
			t.Errorf("%s: %d forward passes over 21 evaluate-then-differentiate rounds; the reuse path was not taken", c.name, got)
		}
		ws.Close()
	}
}
