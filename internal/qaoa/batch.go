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
// worker. It is the batch analogue of Evaluator.NegExpectation: each
// point costs one QC call and results are returned in input order.
//
// Because every point is evaluated by the same pure kernel on its own
// workspace, EvalBatch is bit-identical to len(points) sequential
// NegExpectation calls regardless of how the scheduler interleaves the
// workers. EvalBatch itself must not be called concurrently (the NFev
// counter and worker workspaces are reused across calls).
//
// The engine is built on the first EvalBatch, not by the constructor:
// a gradient-based run never calls Batch, and its BatchEvaluator then
// never draws a state vector. At depth 1 the engine is the closed form of
// depth1.go, evaluated serially — a point costs less than a goroutine
// hand-off — so there are no workers at all.
type BatchEvaluator struct {
	Problem *Problem
	Depth   int

	arena    *Arena
	nworkers int
	d1       *depth1          // Depth == 1, after the first EvalBatch
	workers  []*EvalWorkspace // Depth ≥ 2, after the first EvalBatch
	nfev     int
}

// NewBatchEvaluator builds a batch evaluator with the given worker
// count (≤ 0 selects GOMAXPROCS). Depth p must be ≥ 1.
func NewBatchEvaluator(pb *Problem, p, workers int) *BatchEvaluator {
	return NewBatchEvaluatorArena(pb, p, workers, nil)
}

// NewBatchEvaluatorArena is NewBatchEvaluator drawing every worker
// workspace's state buffers from the arena (nil behaves like
// NewBatchEvaluator). Call Release when done so the buffers return to
// the arena. An Arena is safe for concurrent use, so one arena can
// back all workers.
func NewBatchEvaluatorArena(pb *Problem, p, workers int, a *Arena) *BatchEvaluator {
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
	return &BatchEvaluator{Problem: pb, Depth: p, arena: a, nworkers: workers}
}

// Release retires the worker workspaces, if any were built, returning
// arena-drawn buffers to their arena (closing shard workers otherwise).
// The evaluator must not be used afterwards.
func (b *BatchEvaluator) Release() {
	for _, ws := range b.workers {
		ws.Release()
	}
}

// Dim returns the number of optimization variables, 2p.
func (b *BatchEvaluator) Dim() int { return 2 * b.Depth }

// EvalBatch evaluates −⟨C⟩ at every point and returns the values in
// input order. Each point counts one QC call.
func (b *BatchEvaluator) EvalBatch(points [][]float64) []float64 {
	for i, x := range points {
		if len(x) != b.Dim() {
			panic(fmt.Sprintf("qaoa: batch point %d has length %d != 2p = %d", i, len(x), b.Dim()))
		}
	}
	b.nfev += len(points)
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
			b.workers[i] = b.Problem.NewWorkspaceArena(b.arena)
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

// NFev returns the number of QC calls so far.
func (b *BatchEvaluator) NFev() int { return b.nfev }

// ResetNFev zeroes the QC-call counter.
func (b *BatchEvaluator) ResetNFev() { b.nfev = 0 }
