package qaoa

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/quantum"
)

// State returns |ψ(γ, β)⟩ evolved by a fresh workspace (the fused layer
// kernels), always as the full 2^n-amplitude register: a half register
// is unfolded. It matches GateState(pr) to rounding error, global phase
// included.
func (pb *Problem) State(pr Params) *quantum.State {
	if err := pr.Validate(false); err != nil {
		panic(err)
	}
	k := pb.kernel()
	w := newWorkspace(k, nil)
	w.runLayers(pr.Gamma, pr.Beta)
	if k.mirror() {
		return w.st.UnfoldMirror()
	}
	return w.st
}

// pathGraph returns the path graph P_n.
func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		if err := g.AddEdge(v, v+1); err != nil {
			panic(err)
		}
	}
	return g
}

// cycleGraph returns the cycle graph C_n (n ≥ 3).
func cycleGraph(n int) *graph.Graph {
	g := pathGraph(n)
	if err := g.AddEdge(n-1, 0); err != nil {
		panic(err)
	}
	return g
}

func mustProblem(t testing.TB, g *graph.Graph) *Problem {
	t.Helper()
	pb, err := NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

func randomParams(rng *rand.Rand, p int) Params {
	pr := NewParams(p)
	for i := 0; i < p; i++ {
		pr.Gamma[i] = rng.Float64() * GammaMax
		pr.Beta[i] = rng.Float64() * BetaMax
	}
	return pr
}

func TestParamsVectorRoundTrip(t *testing.T) {
	pr := Params{Gamma: []float64{1, 2, 3}, Beta: []float64{4, 5, 6}}
	v := pr.Vector()
	want := []float64{1, 2, 3, 4, 5, 6}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("Vector = %v", v)
		}
	}
	rt := FromVector(v)
	if rt.Depth() != 3 || rt.Gamma[2] != 3 || rt.Beta[0] != 4 {
		t.Errorf("round trip = %+v", rt)
	}
}

func TestFromVectorOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromVector([]float64{1, 2, 3})
}

func TestParamsValidate(t *testing.T) {
	good := Params{Gamma: []float64{1}, Beta: []float64{1}}
	if err := good.Validate(true); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := Params{Gamma: []float64{7}, Beta: []float64{1}}
	if err := bad.Validate(true); err == nil {
		t.Error("gamma out of domain accepted")
	}
	bad2 := Params{Gamma: []float64{1}, Beta: []float64{4}}
	if err := bad2.Validate(true); err == nil {
		t.Error("beta out of domain accepted")
	}
	mis := Params{Gamma: []float64{1, 2}, Beta: []float64{1}}
	if err := mis.Validate(false); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestNewProblemRejectsEmptyGraph(t *testing.T) {
	if _, err := NewProblem(graph.New(3)); err == nil {
		t.Error("edgeless graph accepted")
	}
}

// Single edge, p = 1: with U_B = exp(−iβΣX) (i.e. RX(2β) mixers) the
// known closed form is ⟨C⟩ = (1 + sin(γ)·sin(4β)) / 2.
func TestSingleEdgeClosedForm(t *testing.T) {
	g := pathGraph(2)
	pb := mustProblem(t, g)
	for _, gamma := range []float64{0, 0.3, 1.1, math.Pi / 2, 3.0} {
		for _, beta := range []float64{0, 0.2, math.Pi / 8, 1.0, 3.0} {
			pr := Params{Gamma: []float64{gamma}, Beta: []float64{beta}}
			want := 0.5 * (1 + math.Sin(gamma)*math.Sin(4*beta))
			if got := pb.Expectation(pr); math.Abs(got-want) > 1e-10 {
				t.Errorf("γ=%v β=%v: <C> = %v, want %v", gamma, beta, got, want)
			}
		}
	}
}

// The optimal p = 1 single-edge parameters (γ = π/2, β = π/8 gives
// sin·sin = 1) achieve AR = 1.
func TestSingleEdgeOptimal(t *testing.T) {
	pb := mustProblem(t, pathGraph(2))
	pr := Params{Gamma: []float64{math.Pi / 2}, Beta: []float64{math.Pi / 8}}
	if ar := stateVectorRatio(pb, pr); math.Abs(ar-1) > 1e-10 {
		t.Errorf("AR = %v, want 1", ar)
	}
}

func TestZeroParamsGiveUniformExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.ErdosRenyiConnected(6, 0.5, rng)
	pb := mustProblem(t, g)
	pr := NewParams(2) // all-zero angles: state stays uniform
	want := float64(g.NumEdges()) / 2
	if got := pb.Expectation(pr); math.Abs(got-want) > 1e-10 {
		t.Errorf("<C> = %v, want m/2 = %v", got, want)
	}
}

// The fast diagonal path must equal the explicit gate circuit exactly,
// including global phase.
func TestFastPathMatchesGateCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := graph.ErdosRenyiConnected(5, 0.5, rng)
		pb := mustProblem(t, g)
		p := 1 + rng.Intn(3)
		pr := randomParams(rng, p)
		fast := pb.State(pr)
		slow := pb.GateState(pr)
		if !fast.Equal(slow, 1e-10) {
			t.Fatalf("trial %d: fast path != gate circuit (p=%d, %v)", trial, p, g)
		}
	}
}

func TestExpectationBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyiConnected(6, 0.5, rng)
		pb, err := NewProblem(g)
		if err != nil {
			return false
		}
		pr := randomParams(rng, 1+rng.Intn(4))
		e := pb.Expectation(pr)
		return e >= -1e-9 && e <= pb.OptValue+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestApproximationRatioAtMostOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyiConnected(6, 0.5, rng)
		pb, err := NewProblem(g)
		if err != nil {
			return false
		}
		ar := stateVectorRatio(pb, randomParams(rng, 2))
		return ar > 0 && ar <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The Evaluator keeps no counter: an optimizer run over it reports
// every objective call in NFev, at both depth paths.
func TestEvaluatorCountsCalls(t *testing.T) {
	pb := mustProblem(t, cycleGraph(4))
	for _, p := range []int{1, 2} {
		ev := NewEvaluator(pb, p)
		if ev.Dim() != 2*p {
			t.Fatalf("Dim = %d", ev.Dim())
		}
		lo, hi := make([]float64, 2*p), make([]float64, 2*p)
		for i := 0; i < p; i++ {
			hi[i], hi[p+i] = GammaMax, BetaMax
		}
		calls := 0
		r := optimize.Run(context.Background(), optimize.Problem{
			F:  func(x []float64) float64 { calls++; return ev.NegExpectation(x) },
			X0: testParams(p).Vector(), Bounds: optimize.NewBounds(lo, hi),
		}, optimize.Options{Optimizer: &optimize.NelderMead{}})
		if calls == 0 || r.NFev != calls {
			t.Errorf("p=%d: NFev = %d, F called %d times", p, r.NFev, calls)
		}
	}
}

func TestEvaluatorNegatesExpectation(t *testing.T) {
	pb := mustProblem(t, pathGraph(2))
	ev := NewEvaluator(pb, 1)
	x := []float64{math.Pi / 2, math.Pi / 8}
	if got := ev.NegExpectation(x); math.Abs(got+1) > 1e-10 {
		t.Errorf("NegExpectation = %v, want -1", got)
	}
}

func TestEvaluatorWrongDimPanics(t *testing.T) {
	pb := mustProblem(t, pathGraph(2))
	for name, call := range map[string]func(){
		"NegExpectation": func() { NewEvaluator(pb, 2).NegExpectation([]float64{1, 2}) },
		// γ and β of different lengths, at the closed form's depth and at a simulated one.
		"ApproximationRatio p=1": func() { NewEvaluator(pb, 1).ApproximationRatio(Params{Gamma: []float64{1}, Beta: []float64{1, 2}}) },
		"ApproximationRatio p=2": func() { NewEvaluator(pb, 2).ApproximationRatio(Params{Gamma: []float64{1, 2}, Beta: []float64{1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			call()
		}()
	}
}

func TestBestSampled(t *testing.T) {
	pb := mustProblem(t, pathGraph(2))
	// At the optimal single-edge parameters the state concentrates on the
	// cut states |01>, |10>.
	pr := Params{Gamma: []float64{math.Pi / 2}, Beta: []float64{math.Pi / 8}}
	cut, assign := bestSampled(pb, pr)
	if cut != 1 {
		t.Errorf("cut = %g, want 1", cut)
	}
	if assign != 0b01 && assign != 0b10 {
		t.Errorf("assign = %b", assign)
	}
}

// Higher depth should not hurt the best achievable AR: we verify that
// the depth-2 optimum found by a coarse grid refine is >= the depth-1
// optimum on a triangle (the classic non-bipartite example).
func TestDepthImprovesTriangle(t *testing.T) {
	pb := mustProblem(t, cycleGraph(3))
	best1 := bestOnGrid(pb, 1, 24)
	best2 := bestOnGridAround(pb, 2, best1, 8)
	if best2.ar+1e-9 < best1.ar {
		t.Errorf("depth 2 AR %v < depth 1 AR %v", best2.ar, best1.ar)
	}
	if best1.ar < 0.65 {
		t.Errorf("depth-1 triangle AR %v suspiciously low", best1.ar)
	}
}

type gridBest struct {
	pr Params
	ar float64
}

func bestOnGrid(pb *Problem, p, steps int) gridBest {
	if p != 1 {
		panic("grid search only for p=1")
	}
	best := gridBest{ar: -1}
	for i := 0; i < steps; i++ {
		for j := 0; j < steps; j++ {
			pr := Params{
				Gamma: []float64{GammaMax * float64(i) / float64(steps)},
				Beta:  []float64{BetaMax * float64(j) / float64(steps)},
			}
			if ar := stateVectorRatio(pb, pr); ar > best.ar {
				best = gridBest{pr: pr, ar: ar}
			}
		}
	}
	return best
}

// bestOnGridAround scans depth-2 params seeded by the depth-1 optimum
// (second stage scanned coarsely) — enough to witness monotonicity.
func bestOnGridAround(pb *Problem, p int, seed gridBest, steps int) gridBest {
	best := gridBest{ar: -1}
	for i := 0; i < steps; i++ {
		for j := 0; j < steps; j++ {
			pr := Params{
				Gamma: []float64{seed.pr.Gamma[0], GammaMax * float64(i) / float64(steps)},
				Beta:  []float64{seed.pr.Beta[0], BetaMax * float64(j) / float64(steps)},
			}
			if ar := stateVectorRatio(pb, pr); ar > best.ar {
				best = gridBest{pr: pr, ar: ar}
			}
		}
	}
	return best
}
