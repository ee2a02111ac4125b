package qaoa

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"qaoaml/internal/problem"
)

func mustIsing(t testing.TB, in *problem.Instance) *Problem {
	t.Helper()
	pb, err := NewIsing(in)
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

func mustNew(t testing.TB, spec problem.Spec) *Problem {
	t.Helper()
	pb, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

// Streaming vs materialized for Hamiltonians WITH linear terms: an
// integer-coefficient spin glass at n=14 must evaluate bit for bit alike
// on the two kernels at 1, 2 and 8 workers — both derive every double
// from the same int64 accumulator.
func TestIsingStreamMatchesMaterializedExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	in := problem.RandomIsing(14, rng)
	if !in.IntegerCoeffs() {
		t.Fatal("RandomIsing should have integer coefficients")
	}
	hasLinear := false
	for _, h := range in.Linear {
		if h != 0 {
			hasLinear = true
		}
	}
	if !hasLinear {
		t.Fatal("test instance has no linear terms; raise n or reseed")
	}
	sk := newIsingStreamKernel(mustIsing(t, in).Inst, false)
	if !sk.integer {
		t.Fatal("integer spin glass did not take the stream kernel's integer path")
	}
	mat := newMaterializedKernel(in, false)

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range []int{1, 3} {
		x := testParams(p).Vector()
		for _, w := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(w)
			sw, mw := newWorkspace(sk, nil), newWorkspace(mat, nil)
			if sv, mv := sw.ExpectationVec(x), mw.ExpectationVec(x); sv != mv {
				t.Errorf("p=%d w=%d: streaming <Score> %v != materialized %v", p, w, sv, mv)
			}
			sg, mg := make([]float64, len(x)), make([]float64, len(x))
			sv, mv := sw.ValueGrad(x, sg), mw.ValueGrad(x, mg)
			if sv != mv {
				t.Errorf("p=%d w=%d: streaming grad value %v != materialized %v", p, w, sv, mv)
			}
			for i := range sg {
				if sg[i] != mg[i] {
					t.Errorf("p=%d w=%d: grad[%d] streaming %v != materialized %v", p, w, i, sg[i], mg[i])
				}
			}
		}
	}
}

// Float-coefficient instances can't share an integer accumulator, so
// streaming matches materialized to rounding error only.
func TestIsingStreamFloatCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	in := problem.RandomIsing(14, rng)
	in.Linear[3] = 0.37 // break integrality
	if in.IntegerCoeffs() {
		t.Fatal("instance should have float coefficients")
	}
	sk := floatStreamKernel(t, mustIsing(t, in), "float spin glass")
	mat := newMaterializedKernel(in, false)
	x := testParams(2).Vector()
	sv := newWorkspace(sk, nil).ExpectationVec(x)
	mv := newWorkspace(mat, nil).ExpectationVec(x)
	if math.Abs(sv-mv) > 1e-9*(1+math.Abs(mv)) {
		t.Errorf("float streaming <Score> %v != materialized %v", sv, mv)
	}
}

// The generic gate circuit (RZ per field, CNOT·RZ·CNOT per coupling)
// must equal the fast diagonal path exactly, global phase included —
// for both senses, with linear terms present.
func TestIsingFastPathMatchesGateCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		in := problem.RandomIsing(6, rng)
		if trial%2 == 1 {
			in.Sense = problem.Maximize
		}
		pb := mustIsing(t, in)
		pr := randomParams(rng, 1+rng.Intn(3))
		fast := pb.State(pr)
		slow := pb.GateState(pr)
		if !fast.Equal(slow, 1e-10) {
			t.Fatalf("trial %d: fast path != gate circuit (sense %v)", trial, in.Sense)
		}
	}
}

// Expectation must equal the probability-weighted Score sum, and the
// normalized AR must sit in [0, 1] with the brute-force extremes as
// anchors.
func TestIsingExpectationAndRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := problem.RandomIsing(8, rng)
	pb := mustIsing(t, in)
	pr := randomParams(rng, 2)
	e := pb.Expectation(pr)
	want := 0.0
	st := pb.State(pr)
	for z := uint64(0); z < 1<<8; z++ {
		want += st.Probability(z) * in.Score(z)
	}
	if math.Abs(e-want) > 1e-9*(1+math.Abs(want)) {
		t.Errorf("<Score> = %v, want probability sum %v", e, want)
	}
	ar := pb.ApproximationRatio(pr)
	if ar < 0 || ar > 1 {
		t.Errorf("normalized score %v out of [0, 1]", ar)
	}
	if pb.OptValue <= pb.MinScore {
		t.Errorf("degenerate score range [%v, %v]", pb.MinScore, pb.OptValue)
	}
	score, assign := pb.BestSampled(pr)
	if got := in.Score(assign); got != score {
		t.Errorf("BestSampled score %v != Score(%d) = %v", score, assign, got)
	}
}

// New must build a working problem for every family, and the compiled
// families must report sane normalized ratios.
func TestNewAllFamilies(t *testing.T) {
	for _, fam := range problem.Families() {
		rng := rand.New(rand.NewSource(90))
		spec, err := problem.RandomSpec(fam, 9, rng)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		pb, err := New(spec)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if pb.Inst.Family != fam || (pb.Graph != nil) != (fam == problem.FamilyMaxCut) {
			t.Fatalf("%s: compiled a %q instance, Graph set: %v", fam, pb.Inst.Family, pb.Graph != nil)
		}
		pr := testParams(1)
		ar := pb.ApproximationRatio(pr)
		if math.IsNaN(ar) || ar < -1e-12 || ar > 1+1e-12 {
			t.Errorf("%s: approximation ratio %v out of [0, 1]", fam, ar)
		}
	}
}

// Generic canonicalization must preserve the expectation: β mod π and
// (for integer coefficients) γ mod 2π plus the joint conjugation are
// exact symmetries of Hamiltonians with linear terms — while the
// β mod π/2 fold of field-free Hamiltonians is NOT.
func TestIsingCanonicalizePreservesExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := problem.RandomIsing(8, rng)
	pb := mustIsing(t, in)
	for trial := 0; trial < 8; trial++ {
		pr := NewParams(2)
		for i := range pr.Gamma {
			pr.Gamma[i] = (rng.Float64() - 0.5) * 4 * GammaMax
			pr.Beta[i] = (rng.Float64() - 0.5) * 4 * BetaMax
		}
		canon := pb.Canonicalize(pr)
		for i := range canon.Beta {
			if canon.Beta[i] < 0 || canon.Beta[i] >= math.Pi {
				t.Fatalf("canonical beta[%d] = %v out of [0, π)", i, canon.Beta[i])
			}
		}
		if canon.Gamma[0] < 0 || canon.Gamma[0] > math.Pi+1e-12 {
			t.Fatalf("canonical gamma[0] = %v out of [0, π]", canon.Gamma[0])
		}
		e0, e1 := pb.Expectation(pr), pb.Expectation(canon)
		if math.Abs(e0-e1) > 1e-9*(1+math.Abs(e0)) {
			t.Fatalf("trial %d: canonicalization changed <Score>: %v -> %v", trial, e0, e1)
		}
	}
}

// A field-free instance (partition) has MaxCut's X⊗n symmetry: ⟨Score⟩
// is π/2-periodic in every β, and its canonical β lies in [0, π/2) —
// the domain the MaxCut-trained predictor's features come from. One
// field brings the period back to π.
func TestFieldFreeCanonicalizeFoldsBetaModHalfPi(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pb := mustNew(t, problem.Partition(problem.RandomPartition(8, rng)))
	if !pb.Inst.FieldFree() || !pb.Inst.IntegerCoeffs() {
		t.Fatal("partition instance should be field-free with integer coefficients")
	}
	floatIn := *pb.Inst
	floatIn.Quad = append([]problem.Term(nil), floatIn.Quad...)
	floatIn.Quad[0].W += 0.3 // no γ period left: only the β fold applies
	fielded := *pb.Inst
	fielded.Linear = make([]float64, fielded.N)
	fielded.Linear[2] = 40
	broke := false
	for trial := 0; trial < 8; trial++ {
		pr := NewParams(3)
		for i := range pr.Gamma {
			pr.Gamma[i] = (rng.Float64() - 0.5) * 4 * GammaMax
			pr.Beta[i] = (rng.Float64() - 0.5) * 4 * BetaMax
		}
		for _, free := range []*Problem{pb, mustIsing(t, &floatIn)} {
			scale, _ := coeffScale(free.Inst)
			e0 := free.Expectation(pr)
			for i := range pr.Beta {
				shifted := Params{Gamma: pr.Gamma, Beta: append([]float64(nil), pr.Beta...)}
				shifted.Beta[i] += math.Pi / 2
				if e := free.Expectation(shifted); math.Abs(e-e0) > 1e-12*scale {
					t.Fatalf("trial %d: β[%d]+π/2 moved <Score> %v -> %v", trial, i, e0, e)
				}
			}
			canon := free.Canonicalize(pr)
			for i, b := range canon.Beta {
				if b < 0 || b >= math.Pi/2 {
					t.Fatalf("trial %d: canonical beta[%d] = %v out of [0, π/2)", trial, i, b)
				}
			}
			if e := free.Expectation(canon); math.Abs(e-e0) > 1e-9*scale {
				t.Fatalf("trial %d: canonicalization changed <Score>: %v -> %v", trial, e0, e)
			}
			if again := free.Canonicalize(canon); !reflect.DeepEqual(again, canon) {
				t.Fatalf("trial %d: Canonicalize is not idempotent: %v -> %v", trial, canon, again)
			}
		}
		fpb := mustIsing(t, &fielded)
		shifted := Params{Gamma: pr.Gamma, Beta: append([]float64(nil), pr.Beta...)}
		shifted.Beta[0] += math.Pi / 2
		scale, _ := coeffScale(&fielded)
		if math.Abs(fpb.Expectation(shifted)-fpb.Expectation(pr)) > 1e-6*scale {
			broke = true
		}
		for _, b := range fpb.Canonicalize(pr).Beta {
			if b < 0 || b >= math.Pi {
				t.Fatalf("trial %d: fielded canonical beta %v out of [0, π)", trial, b)
			}
		}
	}
	if !broke {
		t.Error("a field never broke the π/2 period: the fielded control checks nothing")
	}
}

func TestNumberPartitionProblem(t *testing.T) {
	// {5, 4, 3, 2} has perfect partitions, e.g. {5,2} vs {4,3}.
	pb := mustNew(t, problem.Partition([]float64{5, 4, 3, 2}))
	if pb.OptValue != 0 {
		t.Errorf("perfect partition optimum = %v, want 0", pb.OptValue)
	}
	// z = 0110 means sets {5,2} / {4,3}: diff 0.
	if got := pb.ScoreValue(0b0110); got != 0 {
		t.Errorf("score(0110) = %v, want 0", got)
	}
	// All on one side: diff = 14 → score −196, the worst.
	if got := pb.ScoreValue(0); got != -196 || pb.MinScore != -196 {
		t.Errorf("score(0000) = %v, worst %v, want -196", got, pb.MinScore)
	}
}

func TestNumberPartitionValidation(t *testing.T) {
	if _, err := New(problem.Partition([]float64{1})); err == nil {
		t.Error("single number accepted")
	}
	if _, err := New(problem.Partition([]float64{1, -2})); err == nil {
		t.Error("negative number accepted")
	}
}

// QAOA on a small partition instance should concentrate probability on
// perfect partitions.
func TestQAOASolvesNumberPartitioning(t *testing.T) {
	pb := mustNew(t, problem.Partition([]float64{5, 4, 3, 2}))
	// Coarse grid at p = 1 over a scaled-down γ range (scores are O(100),
	// so useful γ values are small).
	best := math.Inf(-1)
	var bestPr Params
	for i := 1; i <= 60; i++ {
		for j := 1; j < 60; j++ {
			pr := Params{
				Gamma: []float64{0.2 * float64(i) / 60},
				Beta:  []float64{BetaMax * float64(j) / 60},
			}
			if e := pb.Expectation(pr); e > best {
				best, bestPr = e, pr
			}
		}
	}
	score, assign := pb.BestSampled(bestPr)
	if score != 0 {
		t.Errorf("most probable assignment %04b has score %v, want a perfect partition", assign, score)
	}
	if s := pb.NormalizedScore(best); s <= 0.5 {
		t.Errorf("optimized score %v not above the uniform baseline", s)
	}
}
