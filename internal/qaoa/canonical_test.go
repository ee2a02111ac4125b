package qaoa

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
)

// canonCase is one instance of the symmetry table: fold says its parity
// set S is empty or every spin, so every γi folds into [0, π) and γ1
// into [0, π/2].
type canonCase struct {
	name string
	pb   *Problem
	fold bool
}

// weightedGraph builds a graph from (u, v, weight) triples.
func weightedGraph(t testing.TB, n int, edges [][3]int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for _, e := range edges {
		if err := g.AddWeightedEdge(e[0], e[1], float64(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// canonCases covers every parity class: graphs whose degrees are all
// even (S = ∅), all odd (S = every vertex) or mixed, unweighted and
// integer-weighted; a field-free ±J spin glass (S = ∅); and fielded
// QUBOs with S = ∅ and S = every spin.
func canonCases(t testing.TB) []canonCase {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	glass := problem.RandomIsing(8, rng)
	glass.Linear = nil
	fieldEven := problem.RandomIsing(8, rng) // h, J ∈ {0, ±1}: 2h, 2J even
	fieldOdd := problem.RandomIsing(8, rng)
	for i := range fieldOdd.Linear {
		fieldOdd.Linear[i] = 0.5 + float64(i%3) // every 2h odd, every 2J even
	}
	mixed := graph.New(6)
	for i := 0; i < 5; i++ {
		if err := mixed.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	cases := []canonCase{
		{"even-cycle", mustProblem(t, cycleGraph(8)), true},
		{"odd-3-regular", mustProblem(t, graph.RandomRegular(8, 3, rng)), true},
		{"mixed-path", mustProblem(t, mixed), false},
		{"mixed-erdos-renyi", mustProblem(t, graph.ErdosRenyiConnected(7, 0.5, rng)), false},
		// Weighted degrees 2+4, 4+6, 6+2: all even.
		{"even-int-weighted", mustProblem(t, weightedGraph(t, 3, [][3]int{{0, 1, 2}, {1, 2, 4}, {0, 2, 6}})), true},
		// K4 with weights 1 and 3: every weighted degree 1+3+3 or 3+1+3 is odd.
		{"odd-int-weighted", mustProblem(t, weightedGraph(t, 4, [][3]int{{0, 1, 1}, {2, 3, 1}, {0, 2, 3}, {0, 3, 3}, {1, 2, 3}, {1, 3, 3}})), true},
		{"mixed-int-weighted", mustProblem(t, weightedGraph(t, 4, [][3]int{{0, 1, 2}, {1, 2, 3}, {2, 3, 1}, {0, 3, 2}})), false},
		{"pm-j-glass", mustIsing(t, glass), true},
		{"fielded-qubo-s-empty", mustIsing(t, fieldEven), true},
		{"fielded-qubo-s-all", mustIsing(t, fieldOdd), true},
	}
	return cases
}

// wideParams draws p ∈ [1, 4] stages with angles well outside the
// canonical domain, to exercise every fold.
func wideParams(rng *rand.Rand) Params {
	pr := NewParams(1 + rng.Intn(4))
	for i := range pr.Gamma {
		pr.Gamma[i] = rng.Float64()*20 - 10
		pr.Beta[i] = rng.Float64()*20 - 10
	}
	return pr
}

// Canonicalization must never change the expectation value: the
// metamorphic relation behind every recorded optimum.
func TestCanonicalizePreservesExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range canonCases(t) {
		scale, _ := coeffScale(c.pb.Inst)
		for trial := 0; trial < 40; trial++ {
			pr := wideParams(rng)
			e0, e1 := c.pb.Expectation(pr), c.pb.Expectation(c.pb.Canonicalize(pr))
			if d := math.Abs(e1 - e0); d > 1e-12*scale {
				t.Fatalf("%s: %v moved ⟨C⟩ by %v (scale %v)", c.name, pr, d, scale)
			}
		}
	}
}

// Every case lands in its fundamental domain: β in [0, π/2) field-free
// and [0, π) with a field; γ in [0, 2π) with γ1 ≤ π; and, where S is
// empty or every spin, γ in [0, π) with γ1 ≤ π/2.
func TestCanonicalizeDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range canonCases(t) {
		period := math.Pi
		if c.pb.Inst.FieldFree() {
			period = BetaPeriod
		}
		gammaMax, gamma1Max := GammaMax, math.Pi
		if c.fold {
			gammaMax, gamma1Max = math.Pi, math.Pi/2
		}
		for trial := 0; trial < 100; trial++ {
			cn := c.pb.Canonicalize(wideParams(rng))
			if cn.Gamma[0] > gamma1Max {
				t.Fatalf("%s: canonical γ1 = %v above %v", c.name, cn.Gamma[0], gamma1Max)
			}
			for i := range cn.Gamma {
				if cn.Gamma[i] < 0 || cn.Gamma[i] >= gammaMax {
					t.Fatalf("%s: canonical γ%d = %v out of [0, %v)", c.name, i+1, cn.Gamma[i], gammaMax)
				}
				if cn.Beta[i] < 0 || cn.Beta[i] >= period {
					t.Fatalf("%s: canonical β%d = %v out of [0, %v)", c.name, i+1, cn.Beta[i], period)
				}
			}
		}
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range canonCases(t) {
		for trial := 0; trial < 50; trial++ {
			once := c.pb.Canonicalize(wideParams(rng))
			if twice := c.pb.Canonicalize(once); !reflect.DeepEqual(once, twice) {
				t.Fatalf("%s: not idempotent: %v -> %v", c.name, once, twice)
			}
		}
	}
}

func TestCanonicalizeDoesNotMutateInput(t *testing.T) {
	pb := mustProblem(t, cycleGraph(4))
	pr := Params{Gamma: []float64{5.5}, Beta: []float64{2.5}}
	_ = pb.Canonicalize(pr)
	if pr.Gamma[0] != 5.5 || pr.Beta[0] != 2.5 {
		t.Error("Canonicalize mutated its input")
	}
}

// A MaxCut and its own compiled Ising form read the same instance, so
// they canonicalize to the same bits.
func TestCanonicalizeMatchesCompiledIsing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, c := range canonCases(t) {
		if c.pb.Spec.Family != problem.FamilyMaxCut {
			continue
		}
		in, err := problem.CompileMaxCut(c.pb.Spec.Graph)
		if err != nil {
			t.Fatal(err)
		}
		ising := mustIsing(t, in)
		for trial := 0; trial < 50; trial++ {
			pr := wideParams(rng)
			if a, b := c.pb.Canonicalize(pr), ising.Canonicalize(pr); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: maxcut %v, compiled Ising %v", c.name, a, b)
			}
		}
	}
}

// Symmetric copies of the same optimum must canonicalize to the same
// representative: on a mixed-degree graph the β shifts and the joint
// conjugation; on even- and odd-degree graphs also γ + π, with every
// later β negated where S is every vertex.
func TestSymmetricCopiesCollapse(t *testing.T) {
	base := Params{Gamma: []float64{1.1, 2.0}, Beta: []float64{0.3, 0.7}}
	copies := []Params{
		{Gamma: []float64{1.1, 2.0}, Beta: []float64{0.3 + BetaPeriod, 0.7}},
		{Gamma: []float64{1.1, 2.0}, Beta: []float64{0.3, 0.7 + 2*BetaPeriod}},
		{Gamma: []float64{GammaMax - 1.1, GammaMax - 2.0}, Beta: []float64{-0.3, -0.7}},
	}
	even := append(copies, Params{Gamma: []float64{1.1 + math.Pi, 2.0 - math.Pi}, Beta: []float64{0.3, 0.7}})
	odd := append(copies, Params{Gamma: []float64{1.1 + math.Pi, 2.0}, Beta: []float64{-0.3, -0.7}})
	for _, c := range []struct {
		name   string
		pb     *Problem
		copies []Params
	}{
		{"mixed-path", mustProblem(t, pathGraph(5)), copies},
		{"even-cycle", mustProblem(t, cycleGraph(6)), even},
		{"odd-3-regular", mustProblem(t, graph.RandomRegular(8, 3, rand.New(rand.NewSource(5)))), odd},
	} {
		want := c.pb.Canonicalize(base)
		for ci, cp := range c.copies {
			got := c.pb.Canonicalize(cp)
			for i := range want.Gamma {
				if math.Abs(got.Gamma[i]-want.Gamma[i]) > 1e-12 ||
					math.Abs(got.Beta[i]-want.Beta[i]) > 1e-12 {
					t.Errorf("%s copy %d: canonical %v != %v", c.name, ci, got, want)
					break
				}
			}
		}
	}
}

// Problem.Canonicalize must preserve the expectation on random
// odd-regular and Erdős–Rényi graphs, whatever their parity class.
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

// The γ → γ+π parity symmetries themselves, checked directly against
// the simulator: on an all-odd-degree graph shifting one stage's γ by π
// and negating all later mixers leaves the expectation unchanged; on an
// all-even-degree graph the shift alone does; and on a graph with both
// kinds of vertex neither does.
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
	even := mustProblem(t, cycleGraph(6))
	plain := Params{Gamma: []float64{0.7 + math.Pi, 1.1}, Beta: []float64{0.4, 0.25}}
	if d := math.Abs(even.Expectation(base) - even.Expectation(plain)); d > 1e-9 {
		t.Errorf("even-cycle γ1+π symmetry violated by %v", d)
	}
	// P3 has degrees (1, 2, 1): neither shift holds.
	mixed, err := NewProblem(pathGraph(3))
	if err != nil {
		t.Fatal(err)
	}
	b2 := Params{Gamma: []float64{0.7}, Beta: []float64{0.4}}
	for _, s2 := range []Params{
		{Gamma: []float64{0.7 + math.Pi}, Beta: []float64{-0.4}},
		{Gamma: []float64{0.7 + math.Pi}, Beta: []float64{0.4}},
	} {
		if d := math.Abs(mixed.Expectation(b2) - mixed.Expectation(s2)); d < 1e-6 {
			t.Errorf("γ+π symmetry %v unexpectedly holds on a mixed-degree graph (d=%v)", s2, d)
		}
	}
}

// paritySpins is S recomputed from its definition, as the fuzz oracle:
// the spins touched by an odd number of terms whose doubled coefficient
// is odd.
func paritySpins(in *problem.Instance) (empty, all bool) {
	touched := make([]int, in.N)
	odd := func(c float64) bool { return math.Mod(math.Abs(2*c), 2) == 1 }
	for i, h := range in.Linear {
		if odd(h) {
			touched[i]++
		}
	}
	for _, t := range in.Quad {
		if odd(t.W) {
			touched[t.I]++
			touched[t.J]++
		}
	}
	n := 0
	for _, c := range touched {
		n += c % 2
	}
	return n == 0, n == in.N
}

// FuzzCanonicalize draws an instance of any family with 4–8 qubits and
// angles at depth 1–4, and requires that Canonicalize keeps ⟨C⟩ to a
// bound relative to the coefficients' scale, is idempotent, and brings
// γ1 to at most π/2 whenever the parity set S is empty or every spin.
func FuzzCanonicalize(f *testing.F) {
	f.Add(uint8(0), uint8(8), int64(1), uint8(3), 7.0, -2.0, 4.5, 1.0, -0.3, 2.9, 1.7, -4.0)
	f.Add(uint8(1), uint8(6), int64(2), uint8(4), 3.5, 9.0, -9.0, 0.2, 1.6, -1.6, 3.2, 0.0)
	f.Add(uint8(3), uint8(5), int64(3), uint8(2), -math.Pi, math.Pi, 0.0, 0.0, -math.Pi/2, math.Pi/2, 0.0, 0.0)
	f.Add(uint8(2), uint8(4), int64(4), uint8(1), 2*math.Pi, 0.0, 0.0, 0.0, -1e-17, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, fam, size uint8, seed int64, depth uint8, g1, g2, g3, g4, b1, b2, b3, b4 float64) {
		families := problem.Families()
		spec, err := problem.RandomSpec(families[int(fam)%len(families)], 4+int(size)%5, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Skip(err)
		}
		pb, err := New(spec)
		if err != nil {
			t.Skip(err)
		}
		p := 1 + int(depth)%4
		pr := Params{Gamma: []float64{g1, g2, g3, g4}[:p], Beta: []float64{b1, b2, b3, b4}[:p]}
		for _, a := range [][]float64{pr.Gamma, pr.Beta} {
			for i, v := range a {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Skip("angle not finite")
				}
				// Past a few turns the phases γ·gen lose the bits a fold
				// keeps, so the two sides would no longer compare.
				a[i] = math.Mod(v, 8*math.Pi)
			}
		}
		canon := pb.Canonicalize(pr)
		scale, _ := coeffScale(pb.Inst)
		if e0, e1 := pb.Expectation(pr), pb.Expectation(canon); math.Abs(e1-e0) > 1e-10*scale {
			t.Fatalf("%s: %v -> %v moved ⟨C⟩ %v -> %v (scale %v)", spec.Family, pr, canon, e0, e1, scale)
		}
		if again := pb.Canonicalize(canon); !reflect.DeepEqual(again, canon) {
			t.Fatalf("%s: not idempotent: %v -> %v -> %v", spec.Family, pr, canon, again)
		}
		if empty, all := paritySpins(pb.Inst); pb.Inst.IntegerCoeffs() && (empty || all) && canon.Gamma[0] > math.Pi/2 {
			t.Fatalf("%s: S empty %v, every spin %v, but canonical γ1 = %v", spec.Family, empty, all, canon.Gamma[0])
		}
	})
}
