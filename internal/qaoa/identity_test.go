package qaoa

import (
	"math/rand"
	"runtime"
	"testing"

	"qaoaml/internal/graph"
)

// Cross-GOMAXPROCS bit-identity at the QAOA level: expectation values
// and full adjoint gradients must be EXACTLY equal at 1, 2, and 8
// workers, across the materialized small-n path (n=8), the chunked
// serial path (n=14), the parallel threshold (n=17), and — outside
// short mode — a full-size n=20 instance. This is the end-to-end
// guarantee the fixed reduction geometry (quantum/reduce.go) exists
// for: dataset generation and optimizer traces are reproducible no
// matter what machine they ran on.
func TestEvaluationBitIdenticalAcrossWorkers(t *testing.T) {
	type cfg struct {
		n, deg int
		depths []int
		short  bool // runs in short mode too
	}
	cfgs := []cfg{
		{n: 8, deg: 3, depths: []int{1, 3, 5}, short: true},
		{n: 14, deg: 3, depths: []int{1, 3, 5}, short: true},
		{n: 17, deg: 4, depths: []int{1, 3}, short: false},
		{n: 20, deg: 3, depths: []int{1, 5}, short: false},
	}
	workers := []int{1, 2, 8}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, c := range cfgs {
		if testing.Short() && !c.short {
			continue
		}
		rng := rand.New(rand.NewSource(int64(100 + c.n)))
		g := graph.RandomRegular(c.n, c.deg, rng)
		pb := mustProblem(t, g)
		for _, p := range c.depths {
			pr := testParams(p)
			x := pr.Vector()

			type result struct {
				val, gval float64
				grad      []float64
			}
			var baseline result
			for wi, w := range workers {
				runtime.GOMAXPROCS(w)
				ws := pb.NewWorkspace()
				r := result{grad: make([]float64, len(x))}
				r.val = ws.ExpectationVec(x)
				r.gval = ws.ValueGrad(x, r.grad)
				if wi == 0 {
					baseline = r
					// ValueGrad's forward pass is the same code path as
					// ExpectationVec; the values must be bit-identical.
					if r.gval != r.val {
						t.Errorf("n=%d p=%d: ValueGrad value %v != Expectation %v", c.n, p, r.gval, r.val)
					}
					continue
				}
				if r.val != baseline.val {
					t.Errorf("n=%d p=%d: expectation at GOMAXPROCS=%d %v != 1-worker %v",
						c.n, p, w, r.val, baseline.val)
				}
				if r.gval != baseline.gval {
					t.Errorf("n=%d p=%d: gradient value at GOMAXPROCS=%d %v != 1-worker %v",
						c.n, p, w, r.gval, baseline.gval)
				}
				for i := range r.grad {
					if r.grad[i] != baseline.grad[i] {
						t.Errorf("n=%d p=%d: grad[%d] at GOMAXPROCS=%d %v != 1-worker %v",
							c.n, p, i, w, r.grad[i], baseline.grad[i])
					}
				}
			}
		}
	}
}

// The batch evaluator must stay bit-identical to sequential evaluation
// when the register is large enough to trigger the in-kernel
// parallelism: a 17-vertex MaxCut's half register is the first at
// quantum.ParallelDim.
func TestBatchEvaluatorLargeNCollapsesWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	g := graph.RandomRegular(17, 4, rng)
	pb := mustProblem(t, g)
	b := NewBatchEvaluator(pb, 2, 4)
	points := [][]float64{
		testParams(2).Vector(),
		{0.5, 0.9, 0.25, 0.4},
		{1.1, 0.3, 0.7, 0.2},
	}
	got := b.EvalBatch(points)
	ws := pb.NewWorkspace()
	for i, x := range points {
		if want := -ws.ExpectationVec(x); got[i] != want {
			t.Errorf("batch[%d] = %v, want sequential %v", i, got[i], want)
		}
	}
}
