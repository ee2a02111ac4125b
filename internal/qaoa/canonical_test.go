package qaoa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qaoaml/internal/graph"
)

// Canonicalization must never change the expectation value.
func TestCanonicalizePreservesExpectation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyiConnected(6, 0.5, rng)
		pb, err := NewProblem(g)
		if err != nil {
			return false
		}
		p := 1 + rng.Intn(3)
		pr := NewParams(p)
		for i := 0; i < p; i++ {
			// Sample outside the domain too, to exercise the mod.
			pr.Gamma[i] = rng.Float64()*12 - 6
			pr.Beta[i] = rng.Float64()*8 - 4
		}
		orig := pb.Expectation(pr)
		canon := Canonicalize(pr)
		return math.Abs(pb.Expectation(canon)-orig) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalizeDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		p := 1 + rng.Intn(4)
		pr := NewParams(p)
		for i := 0; i < p; i++ {
			pr.Gamma[i] = rng.Float64()*20 - 10
			pr.Beta[i] = rng.Float64()*20 - 10
		}
		c := Canonicalize(pr)
		if c.Gamma[0] < 0 || c.Gamma[0] > math.Pi+1e-12 {
			t.Fatalf("canonical γ1 = %v out of [0, π]", c.Gamma[0])
		}
		for i := 0; i < p; i++ {
			if c.Gamma[i] < 0 || c.Gamma[i] >= GammaMax {
				t.Fatalf("canonical γ%d = %v out of [0, 2π)", i+1, c.Gamma[i])
			}
			if c.Beta[i] < 0 || c.Beta[i] >= BetaPeriod {
				t.Fatalf("canonical β%d = %v out of [0, π/2)", i+1, c.Beta[i])
			}
		}
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		pr := randomParams(rng, 1+rng.Intn(3))
		once := Canonicalize(pr)
		twice := Canonicalize(once)
		for i := range once.Gamma {
			if math.Abs(once.Gamma[i]-twice.Gamma[i]) > 1e-12 ||
				math.Abs(once.Beta[i]-twice.Beta[i]) > 1e-12 {
				t.Fatalf("not idempotent: %v vs %v", once, twice)
			}
		}
	}
}

func TestCanonicalizeDoesNotMutateInput(t *testing.T) {
	pr := Params{Gamma: []float64{5.5}, Beta: []float64{2.5}}
	_ = Canonicalize(pr)
	if pr.Gamma[0] != 5.5 || pr.Beta[0] != 2.5 {
		t.Error("Canonicalize mutated its input")
	}
}

// Symmetric copies of the same optimum must canonicalize to the same
// representative.
func TestSymmetricCopiesCollapse(t *testing.T) {
	base := Params{Gamma: []float64{1.1, 2.0}, Beta: []float64{0.3, 0.7}}
	copies := []Params{
		{Gamma: []float64{1.1, 2.0}, Beta: []float64{0.3 + BetaPeriod, 0.7}},
		{Gamma: []float64{1.1, 2.0}, Beta: []float64{0.3, 0.7 + 2*BetaPeriod}},
		{Gamma: []float64{GammaMax - 1.1, GammaMax - 2.0}, Beta: []float64{-0.3, -0.7}},
	}
	want := Canonicalize(base)
	for ci, cp := range copies {
		got := Canonicalize(cp)
		for i := range want.Gamma {
			if math.Abs(got.Gamma[i]-want.Gamma[i]) > 1e-12 ||
				math.Abs(got.Beta[i]-want.Beta[i]) > 1e-12 {
				t.Errorf("copy %d: canonical %v != %v", ci, got, want)
				break
			}
		}
	}
}

// Problem.Canonicalize must preserve the expectation on odd-regular
// graphs (where the extra γ → γ+π folding applies) and on general
// graphs (where it reduces to the graph-independent form).
func TestProblemCanonicalizePreservesExpectation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		if seed%2 == 0 {
			g = graph.RandomRegular(8, 3, rng)
		} else {
			g = graph.ErdosRenyiConnected(7, 0.5, rng)
		}
		pb, err := NewProblem(g)
		if err != nil {
			return false
		}
		p := 1 + rng.Intn(3)
		pr := NewParams(p)
		for i := 0; i < p; i++ {
			pr.Gamma[i] = rng.Float64()*12 - 6
			pr.Beta[i] = rng.Float64()*8 - 4
		}
		orig := pb.Expectation(pr)
		canon := pb.Canonicalize(pr)
		return math.Abs(pb.Expectation(canon)-orig) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// On odd-regular graphs every γi folds into [0, π) and γ1 into [0, π/2].
func TestProblemCanonicalizeOddRegularDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pb, err := NewProblem(graph.RandomRegular(8, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		p := 1 + rng.Intn(4)
		pr := NewParams(p)
		for i := 0; i < p; i++ {
			pr.Gamma[i] = rng.Float64()*20 - 10
			pr.Beta[i] = rng.Float64()*20 - 10
		}
		c := pb.Canonicalize(pr)
		if c.Gamma[0] < 0 || c.Gamma[0] > math.Pi/2+1e-12 {
			t.Fatalf("odd-regular canonical γ1 = %v out of [0, π/2]", c.Gamma[0])
		}
		for i := 0; i < p; i++ {
			if c.Gamma[i] < 0 || c.Gamma[i] >= math.Pi {
				t.Fatalf("odd-regular canonical γ%d = %v out of [0, π)", i+1, c.Gamma[i])
			}
			if c.Beta[i] < 0 || c.Beta[i] >= BetaPeriod {
				t.Fatalf("canonical β%d = %v out of [0, π/2)", i+1, c.Beta[i])
			}
		}
	}
}

// The γ → γ+π odd-degree symmetry itself, checked directly against the
// simulator: shifting one stage's γ by π and negating all later mixers
// leaves the expectation unchanged on an all-odd-degree graph, and
// changes it on a graph with an even-degree vertex.
func TestOddDegreeGammaShiftSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	odd, err := NewProblem(graph.RandomRegular(8, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	base := Params{Gamma: []float64{0.7, 1.1}, Beta: []float64{0.4, 0.25}}
	shifted := Params{Gamma: []float64{0.7, 1.1 + math.Pi}, Beta: []float64{0.4, -0.25}}
	if d := math.Abs(odd.Expectation(base) - odd.Expectation(shifted)); d > 1e-9 {
		t.Errorf("odd-regular γ2+π symmetry violated by %v", d)
	}
	first := Params{Gamma: []float64{0.7 + math.Pi, 1.1}, Beta: []float64{-0.4, -0.25}}
	if d := math.Abs(odd.Expectation(base) - odd.Expectation(first)); d > 1e-9 {
		t.Errorf("odd-regular γ1+π symmetry violated by %v", d)
	}
	// P3 has degrees (1, 2, 1): the even-degree middle vertex breaks
	// the symmetry.
	even, err := NewProblem(pathGraph(3))
	if err != nil {
		t.Fatal(err)
	}
	b2 := Params{Gamma: []float64{0.7}, Beta: []float64{0.4}}
	s2 := Params{Gamma: []float64{0.7 + math.Pi}, Beta: []float64{-0.4}}
	if d := math.Abs(even.Expectation(b2) - even.Expectation(s2)); d < 1e-6 {
		t.Errorf("γ+π symmetry unexpectedly holds on even-degree graph (d=%v)", d)
	}
}
