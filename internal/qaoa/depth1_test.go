package qaoa

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
	"qaoaml/internal/quantum"
)

// coeffScale returns the yardstick of the closed-form tolerances,
// |Offset| + Σ|h| + Σ|J| (no ⟨Score⟩ term exceeds it), and the largest
// single coefficient floored at 1 — the rate at which ⟨Score⟩
// oscillates in γ, so the factor ∂/∂γ adds to that yardstick and the
// one the finite-difference step shrinks by.
func coeffScale(in *problem.Instance) (scale, freq float64) {
	scale, freq = math.Abs(in.Offset), 1
	for _, h := range in.Linear {
		scale += math.Abs(h)
		freq = math.Max(freq, math.Abs(h))
	}
	for _, t := range in.Quad {
		scale += math.Abs(t.W)
		freq = math.Max(freq, math.Abs(t.W))
	}
	return scale, freq
}

// randomDepth1Instance draws an n-qubit Hamiltonian built to hit every
// branch of the closed form: couplings at the given density with
// duplicate and explicit zero-weight Quad entries, fields on about half
// the qubits (or none / only fields), and qubit n−1 left isolated when
// there is room. Integer instances keep 2h and 2J integral.
func randomDepth1Instance(n int, rng *rand.Rand, integer, fields, couplings bool) *problem.Instance {
	coeff := func() float64 {
		if integer {
			return float64(rng.Intn(7)-3) / 2
		}
		return 3 * (rng.Float64() - 0.5)
	}
	in := &problem.Instance{
		Family: problem.FamilyQUBO,
		Sense:  problem.Sense(1 - 2*rng.Intn(2)),
		N:      n,
		Vars:   n,
		Linear: make([]float64, n),
		Offset: coeff(),
	}
	live := n // qubits that may carry terms; the last stays isolated
	if n > 2 {
		live = n - 1
	}
	if fields {
		for i := 0; i < live; i++ {
			if rng.Intn(2) == 0 {
				in.Linear[i] = coeff()
			}
		}
		in.Linear[rng.Intn(live)] = 1.5 // at least one, so Validate passes
	}
	if couplings && live >= 2 {
		for i := 0; i < live; i++ {
			for j := i + 1; j < live; j++ {
				switch rng.Intn(5) {
				case 0, 1:
					in.Quad = append(in.Quad, problem.Term{I: i, J: j, W: coeff()})
				case 2: // the same pair twice: the engine must sum them
					in.Quad = append(in.Quad, problem.Term{I: i, J: j, W: coeff()}, problem.Term{I: i, J: j, W: coeff()})
				case 3:
					in.Quad = append(in.Quad, problem.Term{I: i, J: j, W: 0})
				}
			}
		}
		in.Quad = append(in.Quad, problem.Term{I: 0, J: 1, W: -1})
	}
	return in
}

type depth1Case struct {
	name string
	pb   *Problem
}

// depth1Cases is the oracle suite's population: every family compiler
// (through RandomSpec, plus a k = 3 formula whose quadratization adds
// auxiliary qubits), RandomIsing, and the hand-built instances above at
// n = 1…14.
func depth1Cases(t testing.TB) []depth1Case {
	t.Helper()
	rng := rand.New(rand.NewSource(1611))
	var cases []depth1Case
	add := func(name string, pb *Problem, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, depth1Case{name, pb})
	}
	for _, fam := range problem.Families() {
		for _, n := range []int{4, 6, 9, 14} {
			spec, err := problem.RandomSpec(fam, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := New(spec)
			add(fmt.Sprintf("%s/n%d", fam, n), pb, err)
		}
	}
	pb, err := New(problem.MaxKSAT(problem.RandomMaxKSAT(5, 6, 3, rng)))
	add("maxksat/k3-aux", pb, err)
	wg := graph.ErdosRenyiConnected(9, 0.5, rng)
	fw := graph.New(9)
	for _, e := range wg.Edges() {
		if err := fw.AddWeightedEdge(e.U, e.V, 0.25+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	pb, err = NewProblem(fw)
	add("maxcut/float-weights", pb, err)
	for _, n := range []int{4, 7, 11, 14} {
		pb, err := NewIsing(problem.RandomIsing(n, rng))
		add(fmt.Sprintf("randomising/n%d", n), pb, err)
	}
	for n := 1; n <= 14; n++ {
		for _, integer := range []bool{false, true} {
			kind := map[bool]string{false: "float", true: "int"}[integer]
			pb, err := NewIsing(randomDepth1Instance(n, rng, integer, true, n > 1))
			add(fmt.Sprintf("hand/%s/n%d", kind, n), pb, err)
		}
		pb, err := NewIsing(randomDepth1Instance(n, rng, false, true, false))
		add(fmt.Sprintf("hand/fields-only/n%d", n), pb, err)
		if n >= 2 {
			pb, err := NewIsing(randomDepth1Instance(n, rng, false, false, true))
			add(fmt.Sprintf("hand/couplings-only/n%d", n), pb, err)
		}
	}
	return cases
}

// The closed form against the state vector, through the public
// Evaluator, on every family, interior points and domain faces alike:
// the value within 1e-12 of the coefficient scale, the gradient within
// 1e-11 of scale·freq — below 1e-9·scale everywhere but on partition
// instances, whose couplings reach 2.5e3 and whose phase angles reach
// 1e5 rad, where argument reduction costs either engine a few 1e-9 —
// and the gradient against central differences of the value.
func TestDepth1ClosedFormMatchesStateVector(t *testing.T) {
	rng := rand.New(rand.NewSource(1612))
	for _, c := range depth1Cases(t) {
		name, pb := c.name, c.pb
		scale, freq := coeffScale(pb.Inst)
		h := fdStep / freq
		ev := NewEvaluator(pb, 1)
		ws := pb.NewWorkspace()
		points := [][]float64{
			randomPoint(rng, 1, false), randomPoint(rng, 1, false), randomPoint(rng, 1, true),
			{0, 0}, {GammaMax, BetaMax}, {1.3, math.Pi / 4}, {-2.1, 5.5},
		}
		grad, ref := make([]float64, 2), make([]float64, 2)
		for _, x := range points {
			want := ws.ExpectationVec(x)
			got := -ev.NegExpectation(x)
			if d := math.Abs(got - want); d > 1e-12*scale {
				t.Errorf("%s x=%v: closed form %v, state vector %v (|Δ| %.2e > 1e-12·%.3g)", name, x, got, want, d, scale)
			}
			if gv := -ev.NegValueGrad(x, grad); gv != got {
				t.Errorf("%s x=%v: NegValueGrad value %v != NegExpectation %v", name, x, gv, got)
			}
			ws.ValueGrad(x, ref)
			for i := range ref {
				if d := math.Abs(-grad[i] - ref[i]); d > 1e-11*scale*freq {
					t.Errorf("%s x=%v: grad[%d] closed form %v, adjoint %v (|Δ| %.2e)", name, x, i, -grad[i], ref[i], d)
				}
			}
			for i := range x {
				xp, xm := append([]float64(nil), x...), append([]float64(nil), x...)
				xp[i] += h
				xm[i] -= h
				fd := (ev.NegExpectation(xp) - ev.NegExpectation(xm)) / (2 * h)
				if d := math.Abs(grad[i] - fd); d > 1e-6*scale*freq {
					t.Errorf("%s x=%v: grad[%d] %v, central difference %v", name, x, i, grad[i], fd)
				}
			}
		}
		ws.Close()
	}
}

// The engine is serial and its summation order is fixed by the
// instance: results are == at every GOMAXPROCS, and a BatchEvaluator
// agrees with sequential Evaluator calls bit for bit.
func TestDepth1SerialAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(1613))
	pb := mustIsing(t, problem.RandomIsing(12, rng))
	points := make([][]float64, 9)
	for i := range points {
		points[i] = randomPoint(rng, 1, i%3 == 0)
	}
	var base []float64
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		ev := NewEvaluator(pb, 1)
		be := NewBatchEvaluator(pb, 1, 0)
		batch := be.EvalBatch(points)
		var got []float64
		grad := make([]float64, 2)
		for i, x := range points {
			v := ev.NegExpectation(x)
			if batch[i] != v {
				t.Errorf("GOMAXPROCS=%d: batch[%d] = %v, sequential %v", w, i, batch[i], v)
			}
			ev.NegGrad(x, grad)
			got = append(got, v, grad[0], grad[1])
		}
		be.Release()
		if base == nil {
			base = got
			continue
		}
		for i := range got {
			if got[i] != base[i] {
				t.Errorf("GOMAXPROCS=%d: result %d = %v, 1-worker %v", w, i, got[i], base[i])
			}
		}
	}
}

// NaN and ±Inf angles must come back as NaN from every entry point, as
// they do from the state vector, and never panic.
func TestDepth1NonFiniteAnglesGiveNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(1614))
	for _, pb := range []*Problem{
		mustProblem(t, graph.ErdosRenyiConnected(6, 0.5, rng)),
		mustIsing(t, randomDepth1Instance(5, rng, false, true, false)),
		mustIsing(t, randomDepth1Instance(6, rng, true, true, true)),
	} {
		ev := NewEvaluator(pb, 1)
		be := NewBatchEvaluator(pb, 1, 0)
		grad := make([]float64, 2)
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, x := range [][]float64{{bad, 0.3}, {0.4, bad}, {bad, bad}} {
				if v := ev.NegExpectation(x); !math.IsNaN(v) {
					t.Errorf("NegExpectation(%v) = %v, want NaN", x, v)
				}
				if v := ev.NegValueGrad(x, grad); !math.IsNaN(v) || !math.IsNaN(grad[0]) || !math.IsNaN(grad[1]) {
					t.Errorf("NegValueGrad(%v) = %v, %v, want NaN", x, v, grad)
				}
				if v := be.EvalBatch([][]float64{x}); !math.IsNaN(v[0]) {
					t.Errorf("EvalBatch(%v) = %v, want NaN", x, v)
				}
				if ar := ev.ApproximationRatio(FromVector(x)); !math.IsNaN(ar) {
					t.Errorf("ApproximationRatio(%v) = %v, want NaN", x, ar)
				}
			}
		}
	}
}

// A depth-1 Evaluator counts calls exactly as a simulating one does but
// holds no amplitudes until a readout asks for them; the readout then
// agrees with Problem.BestSampled, and Release is safe either way.
func TestDepth1EvaluatorSimulatesOnlyForReadout(t *testing.T) {
	rng := rand.New(rand.NewSource(1615))
	pb := mustProblem(t, graph.RandomRegular(StreamingThreshold+1, 3, rng))
	x := testParams(1).Vector()
	grad := make([]float64, 2)

	before := quantum.AmpBytesAllocated()
	ev := NewEvaluator(pb, 1)
	be := NewBatchEvaluator(pb, 1, 0)
	ev.NegExpectation(x)
	ev.NegExpectation(x)
	ev.NegGrad(x, grad)
	ev.ApproximationRatio(FromVector(x))
	be.EvalBatch([][]float64{x, x, x})
	if ev.NFev() != 2 || ev.NGev() != 1 {
		t.Errorf("counters NFev=%d NGev=%d, want 2/1", ev.NFev(), ev.NGev())
	}
	if d := quantum.AmpBytesAllocated() - before; d != 0 || ev.ForwardPasses() != 0 {
		t.Errorf("closed-form calls allocated %d amplitude bytes and ran %d forward passes, want 0/0", d, ev.ForwardPasses())
	}
	be.Release()
	NewEvaluator(pb, 1).Release() // nothing built, nothing to release

	score, assign := ev.BestSampled(FromVector(x))
	wantScore, wantAssign := pb.BestSampled(FromVector(x))
	if score != wantScore || assign != wantAssign {
		t.Errorf("BestSampled = (%v, %b), Problem.BestSampled (%v, %b)", score, assign, wantScore, wantAssign)
	}
	if ev.ForwardPasses() != 1 {
		t.Errorf("ForwardPasses after one readout = %d, want 1", ev.ForwardPasses())
	}
	ev.Release()
}

// A BatchEvaluator draws no state until EvalBatch runs, and its results
// stay bit-identical to sequential evaluation once it does.
func TestBatchEvaluatorBuildsWorkersOnFirstBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1616))
	pb := mustProblem(t, graph.RandomRegular(StreamingThreshold+1, 3, rng))

	before := quantum.AmpBytesAllocated()
	NewBatchEvaluator(pb, 2, 3).Release()
	be := NewBatchEvaluator(pb, 2, 3)
	if d := quantum.AmpBytesAllocated() - before; d != 0 {
		t.Fatalf("constructor allocated %d amplitude bytes, want 0", d)
	}
	points := [][]float64{testParams(2).Vector(), {0.5, 0.9, 0.25, 0.4}, {1.1, 0.3, 0.7, 0.2}, {2, 1, 0.1, 0.6}}
	got := be.EvalBatch(points)
	if len(be.workers) != 3 {
		t.Errorf("first batch built %d workers, want 3", len(be.workers))
	}
	ev := NewEvaluator(pb, 2)
	for i, x := range points {
		if want := ev.NegExpectation(x); got[i] != want {
			t.Errorf("batch[%d] = %v, sequential %v", i, got[i], want)
		}
	}
	ev.Release()
	be.Release()
}

// Level 1 sits on every solve's hot path: warm closed-form calls must
// not allocate, and a batch allocates only the slice it returns.
func TestDepth1ZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	rng := rand.New(rand.NewSource(1617))
	pb := mustIsing(t, problem.RandomIsing(10, rng))
	ev := NewEvaluator(pb, 1)
	be := NewBatchEvaluator(pb, 1, 0)
	x := testParams(1).Vector()
	grad := make([]float64, 2)
	points := make([][]float64, 16)
	for i := range points {
		points[i] = randomPoint(rng, 1, false)
	}
	be.EvalBatch(points) // warm: builds the engine
	if n := testing.AllocsPerRun(100, func() { _ = ev.NegExpectation(x) }); n != 0 {
		t.Errorf("warm depth-1 NegExpectation allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = ev.NegValueGrad(x, grad) }); n != 0 {
		t.Errorf("warm depth-1 NegValueGrad allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = be.EvalBatch(points) }); n > 1 {
		t.Errorf("warm depth-1 EvalBatch of %d points allocates %v times, want 1 (the result slice)", len(points), n)
	}
}

var depth1Sink float64

// BenchmarkDepth1 puts the closed form beside the state-vector path it
// replaced at depth 1, for one value and for one value + gradient.
func BenchmarkDepth1(b *testing.B) {
	for _, n := range []int{8, 14, 20} {
		rng := rand.New(rand.NewSource(int64(1600 + n)))
		var g *graph.Graph
		if n == 8 {
			g = graph.ErdosRenyiConnected(n, 0.5, rng) // the paper's ensemble
		} else {
			g = graph.RandomRegular(n, 3, rng)
		}
		pb := mustProblem(b, g)
		x := testParams(1).Vector()
		grad := make([]float64, 2)
		size := fmt.Sprintf("n%d", n)

		ev := NewEvaluator(pb, 1)
		b.Run("closed/"+size+"/value", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				depth1Sink += ev.NegExpectation(x)
			}
		})
		b.Run("closed/"+size+"/valuegrad", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				depth1Sink += ev.NegValueGrad(x, grad)
			}
		})

		ws := pb.NewWorkspace()
		ws.ValueGrad(x, grad) // warm: allocates the adjoint buffer
		b.Run("statevector/"+size+"/value", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				depth1Sink += ws.ExpectationVec(x)
			}
		})
		b.Run("statevector/"+size+"/valuegrad", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh point each time, as in a line search: no held state.
				x[0] += 1e-9
				depth1Sink += ws.ValueGrad(x, grad)
			}
		})
		ws.Close()
	}
}
