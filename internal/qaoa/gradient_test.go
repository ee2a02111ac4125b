package qaoa

import (
	"math"
	"math/rand"
	"testing"

	"qaoaml/internal/graph"
)

// centralStep balances truncation (O(h²·f”')) against roundoff (O(ε|f|/h))
// for objectives of magnitude ~10: both land well below the 1e-8
// comparison tolerance.
const centralStep = 1e-5

// centralFD estimates ∂f/∂x_i by central differences at step centralStep.
func centralFD(f func([]float64) float64, x []float64, i int) float64 {
	xp := append([]float64(nil), x...)
	xp[i] = x[i] + centralStep
	fp := f(xp)
	xp[i] = x[i] - centralStep
	fm := f(xp)
	return (fp - fm) / (2 * centralStep)
}

// checkGradient compares the adjoint gradient against central finite
// differences at x, with tolerance scaled by the gradient magnitude.
func checkGradient(t *testing.T, ws *EvalWorkspace, x []float64, label string) {
	t.Helper()
	grad := make([]float64, len(x))
	val := ws.ValueGrad(x, grad)
	if want := ws.ExpectationVec(x); val != want {
		t.Errorf("%s: ValueGrad value %v != ExpectationVec %v (must be bit-identical)", label, val, want)
	}
	for i := range x {
		fd := centralFD(ws.ExpectationVec, x, i)
		tol := 1e-8 * math.Max(1, math.Abs(fd))
		if diff := math.Abs(grad[i] - fd); diff > tol {
			t.Errorf("%s: ∂/∂x[%d]: adjoint %v vs FD %v (diff %.3g > tol %.3g)",
				label, i, grad[i], fd, diff, tol)
		}
	}
}

// randomPoint draws an in-domain parameter vector; with faces=true a
// few coordinates are pinned to their box faces (γ ∈ {0, 2π},
// β ∈ {0, π}) to cover boundary points the optimizers visit.
func randomPoint(rng *rand.Rand, p int, faces bool) []float64 {
	x := make([]float64, 2*p)
	for i := 0; i < p; i++ {
		x[i] = rng.Float64() * GammaMax
		x[p+i] = rng.Float64() * BetaMax
	}
	if faces {
		x[0] = float64(rng.Intn(2)) * GammaMax // γ1 ∈ {0, 2π}
		x[2*p-1] = float64(rng.Intn(2)) * BetaMax
	}
	return x
}

// TestAdjointGradientMatchesFiniteDifference is the gradient-check
// suite: random unweighted and weighted graphs, depths 1..5, random
// interior points and box-face points, adjoint vs central differences.
func TestAdjointGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 3; trial++ {
		unweighted, err := NewProblem(graph.ErdosRenyiConnected(6, 0.5, rng))
		if err != nil {
			t.Fatal(err)
		}
		wg := graph.New(6)
		for u := 0; u < 6; u++ {
			for v := u + 1; v < 6; v++ {
				if rng.Float64() < 0.6 {
					if err := wg.AddWeightedEdge(u, v, 0.25+1.5*rng.Float64()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		weighted, err := NewProblem(wg)
		if err != nil {
			t.Fatal(err)
		}
		for name, pb := range map[string]*Problem{"unweighted": unweighted, "weighted": weighted} {
			ws := pb.NewWorkspace()
			for p := 1; p <= 5; p++ {
				checkGradient(t, ws, randomPoint(rng, p, false),
					name+"/interior")
				checkGradient(t, ws, randomPoint(rng, p, true),
					name+"/face")
			}
		}
	}
}

// Evaluator.NegValueGrad must negate both value and gradient, and
// NegGrad must fill the same gradient.
func TestEvaluatorNegValueGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pb, err := NewProblem(graph.ErdosRenyiConnected(7, 0.5, rng))
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(pb, 3)
	ws := pb.NewWorkspace()
	x := randomPoint(rng, 3, false)
	grad := make([]float64, len(x))
	ref := make([]float64, len(x))
	v := ev.NegValueGrad(x, grad)
	refV := ws.ValueGrad(x, ref)
	if v != -refV {
		t.Errorf("NegValueGrad value %v != −ValueGrad %v", v, -refV)
	}
	for i := range grad {
		if grad[i] != -ref[i] {
			t.Errorf("NegValueGrad grad[%d] = %v, want %v", i, grad[i], -ref[i])
		}
	}
	ev.NegGrad(x, grad)
	for i := range grad {
		if grad[i] != -ref[i] {
			t.Errorf("NegGrad grad[%d] = %v, want %v", i, grad[i], -ref[i])
		}
	}
}

// ValueGrad is on the optimizer hot path: after the first call (which
// allocates the adjoint buffer) it must not allocate at all.
func TestValueGradZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	pb, err := NewProblem(graph.ErdosRenyiConnected(8, 0.5, rng))
	if err != nil {
		t.Fatal(err)
	}
	ws := pb.NewWorkspace()
	x := randomPoint(rng, 5, false)
	grad := make([]float64, len(x))
	_ = ws.ValueGrad(x, grad) // warm-up: allocates the adjoint state once
	if allocs := testing.AllocsPerRun(100, func() {
		_ = ws.ValueGrad(x, grad)
	}); allocs != 0 {
		t.Fatalf("warm ValueGrad allocates %v times per call", allocs)
	}
}

func TestValueGradPanicsOnBadLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	pb, err := NewProblem(graph.ErdosRenyiConnected(5, 0.5, rng))
	if err != nil {
		t.Fatal(err)
	}
	ws := pb.NewWorkspace()
	for _, tc := range []struct{ nx, ng int }{{3, 3}, {4, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ValueGrad accepted x len %d, grad len %d", tc.nx, tc.ng)
				}
			}()
			ws.ValueGrad(make([]float64, tc.nx), make([]float64, tc.ng))
		}()
	}
}
