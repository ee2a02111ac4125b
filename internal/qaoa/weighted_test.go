package qaoa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qaoaml/internal/graph"
)

func randomWeightedGraph(rng *rand.Rand, n int) *graph.Graph {
	for {
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					w := 0.5 + rng.Float64()*2
					if err := g.AddWeightedEdge(u, v, w); err != nil {
						panic(err)
					}
				}
			}
		}
		if g.NumEdges() > 0 && g.Connected() {
			return g
		}
	}
}

// Weighted single edge, p = 1: ⟨C⟩ = w(1 + sin(wγ)·sin(4β))/2 by the
// same derivation as the unit-weight closed form with γ → wγ.
func TestWeightedSingleEdgeClosedForm(t *testing.T) {
	g := graph.New(2)
	if err := g.AddWeightedEdge(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	pb := mustProblem(t, g)
	if pb.OptValue != 2.5 {
		t.Fatalf("optimum %v, want 2.5", pb.OptValue)
	}
	for _, gamma := range []float64{0, 0.3, 1.1, 2.0} {
		for _, beta := range []float64{0, 0.2, math.Pi / 8, 1.0} {
			pr := Params{Gamma: []float64{gamma}, Beta: []float64{beta}}
			want := 2.5 * 0.5 * (1 + math.Sin(2.5*gamma)*math.Sin(4*beta))
			if got := pb.Expectation(pr); math.Abs(got-want) > 1e-10 {
				t.Errorf("γ=%v β=%v: <C> = %v, want %v", gamma, beta, got, want)
			}
		}
	}
}

// The weighted fast path must still equal the weighted gate circuit
// exactly. A float-weighted cut is accumulated through the doubled
// Ising sum T(z), not the cut sum, so on both kernels (n = 8
// materialized, n = 14 streamed) ⟨C⟩ is also held to the graph's own
// cut table — on the gate circuit's state and on the fast path's — and
// the adjoint gradient to central differences.
func TestWeightedFastPathMatchesGateCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := randomWeightedGraph(rng, 5)
		pb := mustProblem(t, g)
		pr := randomParams(rng, 1+rng.Intn(3))
		if !pb.State(pr).Equal(pb.GateState(pr), 1e-10) {
			t.Fatalf("trial %d: weighted fast path != gate circuit", trial)
		}
	}
	for _, n := range []int{8, 14} {
		g := graph.New(n)
		for _, e := range graph.RandomRegular(n, 3, rng).Edges() {
			if err := g.AddWeightedEdge(e.U, e.V, 0.25+1.5*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		pb := mustProblem(t, g)
		table, tol := g.WeightedCutTable(), 1e-12*g.TotalWeight()
		ws := pb.NewWorkspace()
		for p := 1; p <= 3; p++ {
			pr := randomParams(rng, p)
			x := pr.Vector()
			grad := make([]float64, len(x))
			got := ws.ValueGrad(x, grad)
			for name, want := range map[string]float64{
				"gate circuit":       pb.GateState(pr).ExpectationDiagonal(table),
				"fast state ⊗ table": pb.State(pr).ExpectationDiagonal(table),
			} {
				if d := math.Abs(got - want); d > tol {
					t.Errorf("n=%d p=%d: ⟨C⟩ = %v, %s %v (|Δ| = %g > %g)", n, p, got, name, want, d, tol)
				}
			}
			for i := range x {
				if fd := centralFD(ws.ExpectationVec, x, i); math.Abs(grad[i]-fd) > 1e-6 {
					t.Errorf("n=%d p=%d: grad[%d] = %v, central difference %v", n, p, i, grad[i], fd)
				}
			}
		}
	}
}

// Integer-valued weights of any size are served: past the int64 path's
// coefficient cap (problem.Instance.IntegerCoeffs) they stream as
// floats; no integer sum of them is ever formed. The angles are dyadic
// so that γ·w is exact — at |w| ~ 1e19 one ulp of that product is a
// thousand radians, and neither engine's phase would mean anything.
func TestHugeIntegerWeights(t *testing.T) {
	pr := Params{Gamma: []float64{0.5, 0.75}, Beta: []float64{0.3, 0.7}}
	for _, w := range []float64{1e19, 3e18} {
		g := graph.New(13)
		for v := 0; v < 13; v++ {
			if err := g.AddWeightedEdge(v, (v+1)%13, w); err != nil {
				t.Fatal(err)
			}
		}
		pb := mustProblem(t, g)
		got := pb.Expectation(pr)
		want := pb.GateState(pr).ExpectationDiagonal(g.WeightedCutTable())
		if d := math.Abs(got - want); !(d <= 1e-12*math.Abs(want)) {
			t.Errorf("w=%g: ⟨C⟩ = %v, gate circuit %v", w, got, want)
		}
	}
}

func TestWeightedExpectationBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomWeightedGraph(rng, 6)
		pb, err := NewProblem(g)
		if err != nil {
			return false
		}
		e := pb.Expectation(randomParams(rng, 2))
		// For positive weights 0 ≤ ⟨C⟩ ≤ C_opt.
		return e >= -1e-9 && e <= pb.OptValue+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Non-integer weights: canonicalization may only fold β.
func TestWeightedCanonicalize(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := randomWeightedGraph(rng, 5)
	pb := mustProblem(t, g)
	pr := Params{Gamma: []float64{5.9, 1.2}, Beta: []float64{2.3, -0.4}}
	c := pb.Canonicalize(pr)
	// γ untouched.
	if c.Gamma[0] != 5.9 || c.Gamma[1] != 1.2 {
		t.Errorf("weighted canonicalization changed γ: %v", c.Gamma)
	}
	// β folded into [0, π/2).
	for i, b := range c.Beta {
		if b < 0 || b >= BetaPeriod {
			t.Errorf("β%d = %v out of [0, π/2)", i+1, b)
		}
	}
	// Expectation preserved.
	if d := math.Abs(pb.Expectation(pr) - pb.Expectation(c)); d > 1e-9 {
		t.Errorf("weighted canonicalization changed expectation by %v", d)
	}
}

// Integer-weighted graphs keep the 2π periodicity, so the full
// canonicalization applies and must preserve the expectation.
func TestIntegerWeightedCanonicalize(t *testing.T) {
	g := graph.New(4)
	for _, e := range [][3]int{{0, 1, 2}, {1, 2, 3}, {2, 3, 1}, {0, 3, 2}} {
		if err := g.AddWeightedEdge(e[0], e[1], float64(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	pb := mustProblem(t, g)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		pr := NewParams(2)
		for i := range pr.Gamma {
			pr.Gamma[i] = rng.Float64()*12 - 6
			pr.Beta[i] = rng.Float64()*8 - 4
		}
		c := pb.Canonicalize(pr)
		if d := math.Abs(pb.Expectation(pr) - pb.Expectation(c)); d > 1e-9 {
			t.Fatalf("integer-weighted canonicalization changed expectation by %v", d)
		}
	}
}

func TestNewProblemRejectsNonPositiveOptimum(t *testing.T) {
	g := graph.New(2)
	if err := g.AddWeightedEdge(0, 1, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewProblem(g); err == nil {
		t.Error("all-negative-weight graph accepted")
	}
}

// A heavy edge must dominate the optimized solution: QAOA on the
// weighted triangle should prefer cutting the weight-10 edge.
func TestWeightedOptimizationPrefersHeavyEdge(t *testing.T) {
	g := graph.New(3)
	for _, e := range []struct {
		u, v int
		w    float64
	}{{0, 1, 10}, {1, 2, 1}, {0, 2, 1}} {
		if err := g.AddWeightedEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	pb := mustProblem(t, g)
	// Coarse grid search at p = 1.
	best := -1.0
	var bestPr Params
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			pr := Params{
				Gamma: []float64{GammaMax * float64(i) / 40},
				Beta:  []float64{BetaMax * float64(j) / 40},
			}
			if e := pb.Expectation(pr); e > best {
				best, bestPr = e, pr
			}
		}
	}
	cut, assign := pb.BestSampled(bestPr)
	if (assign>>0)&1 == (assign>>1)&1 {
		t.Errorf("heavy edge uncut in most probable assignment %03b (cut %g)", assign, cut)
	}
}
