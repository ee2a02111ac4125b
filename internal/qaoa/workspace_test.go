package qaoa

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"qaoaml/internal/graph"
)

func maxStateDiff(t *testing.T, a, b interface {
	Dim() int
	Amplitude(uint64) complex128
}) float64 {
	t.Helper()
	worst := 0.0
	for z := 0; z < a.Dim(); z++ {
		if d := cmplx.Abs(a.Amplitude(uint64(z)) - b.Amplitude(uint64(z))); d > worst {
			worst = d
		}
	}
	return worst
}

// Golden exactness: the fused mixing layer + memoized phase separator
// must reproduce the explicit gate-level circuit (CNOT·RZ·CNOT + per-
// qubit RX) to ≤ 1e-12 amplitude-wise, global phase included, on both
// unweighted and weighted random graphs.
func TestWorkspaceStateMatchesGateCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		var g *graph.Graph
		if trial%2 == 0 {
			g = graph.ErdosRenyiConnected(6, 0.5, rng)
		} else {
			g = randomWeightedGraph(rng, 6)
		}
		pb := mustProblem(t, g)
		pr := randomParams(rng, 1+rng.Intn(4))
		fast := pb.State(pr)
		slow := pb.GateState(pr)
		if d := maxStateDiff(t, fast, slow); d > 1e-12 {
			t.Fatalf("trial %d: fast state differs from gate circuit by %v", trial, d)
		}
	}
}

// The workspace expectation must agree with the gate-level expectation
// to ≤ 1e-12 and with Problem.Expectation bit-for-bit (same kernel).
func TestWorkspaceExpectationMatchesGateCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 12; trial++ {
		var g *graph.Graph
		if trial%2 == 0 {
			g = graph.ErdosRenyiConnected(7, 0.4, rng)
		} else {
			g = randomWeightedGraph(rng, 7)
		}
		pb := mustProblem(t, g)
		pr := randomParams(rng, 1+rng.Intn(3))
		ws := pb.NewWorkspace()
		got := ws.expectation(pr.Gamma, pr.Beta)
		ref := pb.GateState(pr).ExpectationDiagonal(g.WeightedCutTable())
		if math.Abs(got-ref) > 1e-12 {
			t.Fatalf("trial %d: workspace ⟨C⟩ = %v, gate circuit %v", trial, got, ref)
		}
		if pe := pb.Expectation(pr); pe != got {
			t.Fatalf("trial %d: Problem.Expectation %v != workspace %v", trial, pe, got)
		}
	}
}

// Workspaces must be reusable: interleaved evaluations at different
// depths and parameters stay consistent with fresh evaluations.
func TestWorkspaceReuseIsStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pb := mustProblem(t, graph.ErdosRenyiConnected(6, 0.5, rng))
	ws := pb.NewWorkspace()
	prs := []Params{randomParams(rng, 3), randomParams(rng, 1), randomParams(rng, 2)}
	want := make([]float64, len(prs))
	for i, pr := range prs {
		want[i] = pb.NewWorkspace().expectation(pr.Gamma, pr.Beta)
	}
	for round := 0; round < 3; round++ {
		for i, pr := range prs {
			if got := ws.expectation(pr.Gamma, pr.Beta); got != want[i] {
				t.Fatalf("round %d params %d: reused workspace %v != fresh %v", round, i, got, want[i])
			}
		}
	}
}

// NegExpectation must not allocate once the evaluator is warm — the
// whole point of the workspace engine.
func TestNegExpectationZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pb := mustProblem(t, graph.ErdosRenyiConnected(8, 0.5, rng))
	ev := NewEvaluator(pb, 3)
	x := randomParams(rng, 3).Vector()
	_ = ev.NegExpectation(x) // warm up
	if allocs := testing.AllocsPerRun(50, func() { _ = ev.NegExpectation(x) }); allocs != 0 {
		t.Errorf("NegExpectation allocates %v objects per call, want 0", allocs)
	}
}

// The distinct-cut factorization must actually compress: an unweighted
// graph has at most |E|+1 distinct cut values.
func TestKernelCompressesDistinctCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := graph.ErdosRenyiConnected(8, 0.5, rng)
	pb := mustProblem(t, g)
	k, ok := pb.kernel().(*diagKernel)
	if !ok {
		t.Fatalf("small-n problem built %T, want the materialized *diagKernel", pb.kernel())
	}
	if max := g.NumEdges() + 1; len(k.halfAngles) > max {
		t.Errorf("kernel has %d distinct phase angles, want ≤ %d", len(k.halfAngles), max)
	}
	if len(k.idx) != 1<<uint(g.N-1) {
		t.Errorf("kernel index table length %d != half the register's %d", len(k.idx), 1<<uint(g.N))
	}
}

// BatchEvaluator must agree with sequential NegExpectation bit-for-bit,
// in input order.
func TestBatchEvaluatorMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, workers := range []int{1, 3} {
		pb := mustProblem(t, randomWeightedGraph(rng, 7))
		const depth = 3
		points := make([][]float64, 17)
		for i := range points {
			points[i] = randomParams(rng, depth).Vector()
		}
		be := NewBatchEvaluator(pb, depth, workers)
		got := be.EvalBatch(points)
		ev := NewEvaluator(pb, depth)
		for i, x := range points {
			if want := ev.NegExpectation(x); got[i] != want {
				t.Fatalf("workers=%d point %d: batch %v != sequential %v", workers, i, got[i], want)
			}
		}
	}
}

func TestBatchEvaluatorWrongDimPanics(t *testing.T) {
	pb := mustProblem(t, pathGraph(3))
	be := NewBatchEvaluator(pb, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	be.EvalBatch([][]float64{{1, 2, 3}})
}
