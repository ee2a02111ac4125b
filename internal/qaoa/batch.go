package qaoa

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"qaoaml/internal/quantum"
)

// BatchEvaluator evaluates independent parameter vectors of one
// (problem, depth) objective on a worker pool, one EvalWorkspace per
// worker, and returns −⟨C⟩ in input order. Every point is evaluated by
// the same pure kernel on its own workspace, so EvalBatch is
// bit-identical to len(points) sequential Evaluator.NegExpectation calls
// however the scheduler interleaves the workers. EvalBatch must not be
// called concurrently (the worker workspaces are reused across calls).
// The workers are built on the first EvalBatch; at depth 1 the engine
// is the closed form of depth1.go, evaluated serially, with no workers.
//
// Deprecated: no optimizer evaluates batches; kept for the ladder's
// qaoa.batch_evals_per_s row in benchmark/ (ROADMAP item 1).
type BatchEvaluator struct {
	Problem *Problem
	Depth   int

	nworkers int
	d1       *depth1          // Depth == 1, after the first EvalBatch
	workers  []*EvalWorkspace // Depth ≥ 2, after the first EvalBatch
}

// NewBatchEvaluator builds a batch evaluator with the given worker
// count (≤ 0 selects GOMAXPROCS). Depth p must be ≥ 1.
//
// Deprecated: see BatchEvaluator.
func NewBatchEvaluator(pb *Problem, p, workers int) *BatchEvaluator {
	if p < 1 {
		panic(fmt.Sprintf("qaoa: depth %d < 1", p))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Large registers already parallelize inside the quantum kernels
	// (chunked gates and reductions); stacking batch-level workers on
	// top would oversubscribe every core with competing state vectors,
	// so the batch collapses to one worker and lets the kernels scale.
	if 1<<uint(pb.stateQubits()) >= quantum.ParallelDim {
		workers = 1
	}
	return &BatchEvaluator{Problem: pb, Depth: p, nworkers: workers}
}

// Release retires the worker workspaces, if any were built. The
// evaluator must not be used afterwards.
func (b *BatchEvaluator) Release() {
	for _, ws := range b.workers {
		ws.Release()
	}
}

// Dim returns the number of optimization variables, 2p.
func (b *BatchEvaluator) Dim() int { return 2 * b.Depth }

// EvalBatch evaluates −⟨C⟩ at every point and returns the values in
// input order.
func (b *BatchEvaluator) EvalBatch(points [][]float64) []float64 {
	for i, x := range points {
		if len(x) != b.Dim() {
			panic(fmt.Sprintf("qaoa: batch point %d has length %d != 2p = %d", i, len(x), b.Dim()))
		}
	}
	out := make([]float64, len(points))
	if b.Depth == 1 {
		if b.d1 == nil {
			b.d1 = newDepth1(b.Problem)
		}
		for i, x := range points {
			v, _, _ := b.d1.eval(x[0], x[1])
			out[i] = -v
		}
		return out
	}
	if b.workers == nil {
		b.workers = make([]*EvalWorkspace, b.nworkers)
		for i := range b.workers {
			b.workers[i] = b.Problem.NewWorkspace()
		}
	}
	nw := len(b.workers)
	if nw > len(points) {
		nw = len(points)
	}
	if nw <= 1 {
		ws := b.workers[0]
		for i, x := range points {
			out[i] = -ws.ExpectationVec(x)
		}
		return out
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(ws *EvalWorkspace) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(points) {
					return
				}
				out[i] = -ws.ExpectationVec(points[i])
			}
		}(b.workers[w])
	}
	wg.Wait()
	return out
}
