package problem

import (
	"math"
	"math/rand"
	"testing"

	"qaoaml/internal/graph"
)

// exhaustiveOpt scans the classical objective fn over all 2^n
// assignments and returns the extreme per sense.
func exhaustiveOpt(n int, sense Sense, fn func(z uint64) float64) (opt float64, arg uint64) {
	opt = fn(0)
	for z := uint64(1); z < 1<<uint(n); z++ {
		v := fn(z)
		if sense.Sign()*(v-opt) > 0 {
			opt, arg = v, z
		}
	}
	return opt, arg
}

func TestMaxCutCompilerGroundState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		g := graph.ErdosRenyiConnected(9, 0.5, rng)
		in, err := CompileMaxCut(g)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		// Value(z) must reproduce the cut weight exactly for unit weights;
		// the largest cut is the independent optimum.
		wantOpt := 0.0
		for z := uint64(0); z < 1<<9; z++ {
			got, want := in.Value(z), g.WeightedCutValue(z)
			if got != want {
				t.Fatalf("trial %d: Value(%d) = %v, cut = %v", trial, z, got, want)
			}
			wantOpt = max(wantOpt, want)
		}
		opt, _, arg := in.BruteForce()
		if opt != wantOpt {
			t.Fatalf("trial %d: brute-force opt %v != largest cut %v", trial, opt, wantOpt)
		}
		if in.Value(arg) != opt {
			t.Fatalf("trial %d: argOpt value %v != opt %v", trial, in.Value(arg), opt)
		}
	}
}

// A graph the ratio ⟨C⟩/C_opt is undefined on is refused by its compiler.
func TestCompileMaxCutRejects(t *testing.T) {
	negative := graph.New(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := negative.AddWeightedEdge(e[0], e[1], -1); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]struct {
		g    *graph.Graph
		want string
	}{
		"no edges":           {graph.New(3), "problem: graph with no edges has no MaxCut objective"},
		"no positive weight": {negative, "problem: graph with no positive edge weight has no positive cut"},
	}
	for name, c := range cases {
		if _, err := CompileMaxCut(c.g); err == nil || err.Error() != c.want {
			t.Errorf("%s: %v, want %q", name, err, c.want)
		}
	}
}

func TestPartitionCompilerGroundState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		nums := RandomPartition(10, rng)
		in, err := CompilePartition(nums)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		diffSq := func(z uint64) float64 {
			d := 0.0
			for i, w := range nums {
				if (z>>uint(i))&1 == 0 {
					d += w
				} else {
					d -= w
				}
			}
			return d * d
		}
		for z := uint64(0); z < 1<<10; z++ {
			if got, want := in.Value(z), diffSq(z); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: Value(%d) = %v, want %v", trial, z, got, want)
			}
		}
		opt, worst, _ := in.BruteForce()
		wantOpt, _ := exhaustiveOpt(10, Minimize, diffSq)
		wantWorst, _ := exhaustiveOpt(10, Maximize, diffSq)
		if opt != wantOpt || worst != wantWorst {
			t.Fatalf("trial %d: brute force (%v, %v), want (%v, %v)", trial, opt, worst, wantOpt, wantWorst)
		}
	}
}

func TestMaxKSATCompilerGroundState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 4; trial++ {
		f := RandomMaxKSAT(8, 5, 3, rng)
		in, err := CompileMaxKSAT(f)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		if in.Vars != 8 {
			t.Fatalf("Vars = %d, want 8", in.Vars)
		}
		if in.N > 14 {
			t.Fatalf("register %d too wide for brute force", in.N)
		}
		// For every decision assignment, minimizing the compiled value
		// over the auxiliary bits must reproduce the unsat weight exactly
		// (the Rosenberg quadratization is exact under aux minimization).
		auxBits := in.N - in.Vars
		for z := uint64(0); z < 1<<8; z++ {
			best := math.Inf(1)
			for a := uint64(0); a < 1<<uint(auxBits); a++ {
				if v := in.Value(z | a<<8); v < best {
					best = v
				}
			}
			if want := f.UnsatWeight(z); best != want {
				t.Fatalf("trial %d: min-aux value at %d = %v, unsat weight = %v", trial, z, best, want)
			}
		}
		opt, _, _ := in.BruteForce()
		wantOpt, _ := exhaustiveOpt(8, Minimize, f.UnsatWeight)
		if opt != wantOpt {
			t.Fatalf("trial %d: ground state %v != min unsat weight %v", trial, opt, wantOpt)
		}
	}
}

func TestPortfolioCompilerGroundState(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4; trial++ {
		p := RandomPortfolio(9, rng)
		in, err := CompilePortfolio(p)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		for z := uint64(0); z < 1<<9; z++ {
			if got, want := in.Value(z), p.Objective(z); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("trial %d: Value(%d) = %v, objective = %v", trial, z, got, want)
			}
		}
		opt, _, arg := in.BruteForce()
		wantOpt, wantArg := exhaustiveOpt(9, Minimize, p.Objective)
		if math.Abs(opt-wantOpt) > 1e-9*(1+math.Abs(wantOpt)) {
			t.Fatalf("trial %d: ground state %v != exhaustive %v (arg %d vs %d)", trial, opt, wantOpt, arg, wantArg)
		}
	}
}

// A covariance whose later rows are too short to mirror an earlier
// row's entries is refused as ragged: the symmetry check indexed the
// short row before its length was read, and panicked.
func TestPortfolioShortLaterRows(t *testing.T) {
	for _, tc := range []struct {
		cov  [][]float64
		want string
	}{
		{[][]float64{{0, 0, 0, 0}, {}, {}, {}}, "problem: covariance row 1 has 0 entries for 4 assets"},
		{[][]float64{{1, 0, 0}, {0, 1, 0}, {0}}, "problem: covariance row 2 has 1 entries for 3 assets"},
	} {
		p := &PortfolioSpec{Returns: make([]float64, len(tc.cov)), Covariance: tc.cov, RiskAversion: 1, Budget: 1}
		if err := p.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("%v: %v, want %q", tc.cov, err, tc.want)
		}
	}
}

func TestColoringCompilerGroundState(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 4; trial++ {
		g := graph.ErdosRenyiConnected(4, 0.6, rng)
		in, err := CompileColoring(g, 3, 0, 0)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		if in.N != 12 {
			t.Fatalf("register %d, want 12", in.N)
		}
		for z := uint64(0); z < 1<<12; z++ {
			if got, want := in.Value(z), ColoringObjective(g, 3, 0, 0, z); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: Value(%d) = %v, penalty = %v", trial, z, got, want)
			}
		}
		// Any graph on 4 vertices with at least one non-complete pair is
		// 3-colorable iff it has no K4; either way the compiled ground
		// state must equal the exhaustive penalty minimum.
		opt, _, _ := in.BruteForce()
		wantOpt, _ := exhaustiveOpt(12, Minimize, func(z uint64) float64 {
			return ColoringObjective(g, 3, 0, 0, z)
		})
		if opt != wantOpt {
			t.Fatalf("trial %d: ground state %v != exhaustive %v", trial, opt, wantOpt)
		}
	}
}

func TestQUBOIsingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		n := 3 + rng.Intn(8)
		q := NewQUBO(n, Minimize)
		q.AddConstant(rng.NormFloat64())
		for i := 0; i < n; i++ {
			q.AddLinear(i, rng.NormFloat64())
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					q.AddQuadratic(i, j, rng.NormFloat64())
				}
			}
		}
		in, err := q.ToIsing(FamilyQUBO, n)
		if err != nil {
			t.Fatalf("trial %d: ToIsing: %v", trial, err)
		}
		for z := uint64(0); z < 1<<uint(n); z++ {
			got, want := in.Value(z), q.Value(z)
			if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("trial %d: Ising value %v != QUBO value %v at z=%d", trial, got, want, z)
			}
		}
	}
}

func TestSenseNormalization(t *testing.T) {
	in := &Instance{Family: FamilyQUBO, Sense: Minimize, N: 2, Vars: 2, Quad: []Term{{I: 0, J: 1, W: 1}}}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Value(00) = +1 (aligned), Value(01) = −1. Minimize → Score flips.
	if in.Score(0) != -1 || in.Score(1) != 1 {
		t.Fatalf("scores (%v, %v), want (−1, +1)", in.Score(0), in.Score(1))
	}
	opt, worst, arg := in.BruteForce()
	if opt != -1 || worst != 1 {
		t.Fatalf("brute force (%v, %v), want (−1, 1)", opt, worst)
	}
	if in.Value(arg) != -1 {
		t.Fatalf("argOpt value %v, want −1", in.Value(arg))
	}
	in.Sense = Maximize
	opt, worst, _ = in.BruteForce()
	if opt != 1 || worst != -1 {
		t.Fatalf("maximize brute force (%v, %v), want (1, −1)", opt, worst)
	}
}

func TestFingerprintDistinguishesInstances(t *testing.T) {
	base := func() *Instance {
		return &Instance{
			Family: FamilyQUBO, Sense: Minimize, N: 4, Vars: 4,
			Linear: []float64{1, 0, -1, 0},
			Quad:   []Term{{I: 0, J: 1, W: 1}, {I: 2, J: 3, W: -1}},
			Offset: 2.5,
		}
	}
	a := base()
	fps := map[string]string{a.Fingerprint(): "base"}
	check := func(name string, mutate func(*Instance)) {
		in := base()
		mutate(in)
		fp := in.Fingerprint()
		if prev, dup := fps[fp]; dup {
			t.Fatalf("%s collides with %s", name, prev)
		}
		fps[fp] = name
	}
	check("offset", func(in *Instance) { in.Offset = 3 })
	check("linear", func(in *Instance) { in.Linear[1] = 0.5 })
	check("coupling", func(in *Instance) { in.Quad[0].W = 2 })
	check("sense", func(in *Instance) { in.Sense = Maximize })
	check("family", func(in *Instance) { in.Family = FamilyPartition })
	check("vars", func(in *Instance) { in.Vars = 3 })

	// Term order must NOT matter: same objective, same fingerprint.
	shuffled := base()
	shuffled.Quad[0], shuffled.Quad[1] = shuffled.Quad[1], shuffled.Quad[0]
	if shuffled.Fingerprint() != base().Fingerprint() {
		t.Fatal("term order changed the fingerprint")
	}
}

func TestSpecCompileAndFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, family := range Families() {
		spec, err := RandomSpec(family, 9, rng)
		if err != nil {
			t.Fatalf("%s: RandomSpec: %v", family, err)
		}
		in, err := spec.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", family, err)
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("%s: invalid instance: %v", family, err)
		}
		switch family {
		case FamilyPartition, FamilyPortfolio, FamilyColoring:
			qb, err := spec.Qubits()
			if err != nil || qb != in.N {
				t.Fatalf("%s: Qubits() = (%d, %v), instance has %d", family, qb, err, in.N)
			}
		}
		fp, err := spec.Fingerprint()
		if err != nil || fp == "" {
			t.Fatalf("%s: fingerprint (%q, %v)", family, fp, err)
		}
		if family == FamilyMaxCut {
			if fp != spec.Graph.Fingerprint() {
				t.Fatal("maxcut spec fingerprint must stay the plain graph fingerprint")
			}
		} else if fp != in.Fingerprint() {
			t.Fatalf("%s: spec fingerprint != instance fingerprint", family)
		}
	}
	if _, err := RandomSpec("nosuch", 8, rng); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, family := range Families() {
		s1, err1 := RandomSpec(family, 10, rand.New(rand.NewSource(42)))
		s2, err2 := RandomSpec(family, 10, rand.New(rand.NewSource(42)))
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", family, err1, err2)
		}
		f1, _ := s1.Fingerprint()
		f2, _ := s2.Fingerprint()
		if f1 != f2 {
			t.Fatalf("%s: same seed produced different instances", family)
		}
	}
}

// Vars is a bare number on the wire and in dataset files; compiling a
// formula allocates per variable, so an absurd count is refused before
// anything is sized by it (a billion variables used to ask for 8 GB).
func TestMaxKSATRejectsHugeVars(t *testing.T) {
	f := &Formula{Vars: 1_000_000_000, Clauses: []Clause{{1, 2}}}
	if _, err := CompileMaxKSAT(f); err == nil {
		t.Fatal("billion-variable formula compiled")
	}
}

func TestIntegerCoeffs(t *testing.T) {
	in := &Instance{Family: FamilyQUBO, Sense: Maximize, N: 2, Vars: 2, Quad: []Term{{I: 0, J: 1, W: -0.5}}}
	if !in.IntegerCoeffs() {
		t.Fatal("half-integer couplings must qualify for the exact path")
	}
	in.Quad[0].W = 0.3
	if in.IntegerCoeffs() {
		t.Fatal("0.3 coupling wrongly qualified")
	}
	// A MaxCut instance qualifies exactly when every edge weight is an
	// integer: J = −w/2.
	for _, c := range []struct {
		w    float64
		want bool
	}{{1, true}, {2, true}, {-3, true}, {2.5, false}} {
		g := graph.New(3)
		if err := g.AddWeightedEdge(0, 1, c.w); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(1, 2); err != nil {
			t.Fatal(err)
		}
		in, err := CompileMaxCut(g)
		if err != nil {
			t.Fatal(err)
		}
		if in.IntegerCoeffs() != c.want {
			t.Errorf("maxcut with weight %v: IntegerCoeffs = %v, want %v", c.w, !c.want, c.want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]*Instance{
		"empty":     {Family: FamilyQUBO, Sense: Minimize, N: 2, Vars: 2},
		"badterm":   {Family: FamilyQUBO, Sense: Minimize, N: 2, Vars: 2, Quad: []Term{{I: 1, J: 1, W: 1}}},
		"outof":     {Family: FamilyQUBO, Sense: Minimize, N: 2, Vars: 2, Quad: []Term{{I: 0, J: 2, W: 1}}},
		"badlinear": {Family: FamilyQUBO, Sense: Minimize, N: 2, Vars: 2, Linear: []float64{1}},
		"nan":       {Family: FamilyQUBO, Sense: Minimize, N: 2, Vars: 2, Quad: []Term{{I: 0, J: 1, W: math.NaN()}}},
		"badsense":  {Family: FamilyQUBO, Sense: 0, N: 2, Vars: 2, Quad: []Term{{I: 0, J: 1, W: 1}}},
		"badvars":   {Family: FamilyQUBO, Sense: Minimize, N: 2, Vars: 3, Quad: []Term{{I: 0, J: 1, W: 1}}},
		// Finite one by one, +Inf in sum: Value(0) would be.
		"overflow": {Family: FamilyQUBO, Sense: Minimize, N: 2, Vars: 2, Linear: []float64{1e308, 0}, Quad: []Term{{I: 0, J: 1, W: 1e308}}},
		// Finite in sum, +Inf squared: the adjoint gradient would be.
		"gradient-overflow": {Family: FamilyQUBO, Sense: Minimize, N: 2, Vars: 2, Linear: []float64{1e154, 0}, Quad: []Term{{I: 0, J: 1, W: 1e154}}},
	}
	for name, in := range cases {
		if err := in.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

// FieldFree is an exact test on the linear terms alone, and the
// predicate BruteForce's half walk rests on: with it the walk must
// still find both extremes.
func TestFieldFree(t *testing.T) {
	quad := []Term{{I: 0, J: 1, W: 1}, {I: 1, J: 2, W: -2}, {I: 0, J: 2, W: 0.5}}
	cases := []struct {
		name   string
		linear []float64
		want   bool
	}{
		{"nil", nil, true},
		{"zeros", []float64{0, 0, 0}, true},
		{"negative zero", []float64{0, math.Copysign(0, -1), 0}, true},
		{"tiny", []float64{0, 0, 1e-300}, false},
		{"one", []float64{1, 0, 0}, false},
	}
	for _, c := range cases {
		in := &Instance{Family: FamilyQUBO, Sense: Minimize, N: 3, Vars: 3, Linear: c.linear, Quad: quad}
		if got := in.FieldFree(); got != c.want {
			t.Errorf("%s: FieldFree = %v, want %v", c.name, got, c.want)
		}
		opt, worst, arg := in.BruteForce()
		wantOpt, wantWorst := math.Inf(1), math.Inf(-1)
		for z := uint64(0); z < 8; z++ {
			wantOpt, wantWorst = math.Min(wantOpt, in.Value(z)), math.Max(wantWorst, in.Value(z))
		}
		if opt != wantOpt || worst != wantWorst || in.Value(arg) != opt {
			t.Errorf("%s: BruteForce = (%v, %v, %b), exhaustive scan (%v, %v)", c.name, opt, worst, arg, wantOpt, wantWorst)
		}
	}
}
