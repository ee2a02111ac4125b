package qaoa

import "fmt"

// BatchEvaluator evaluates parameter vectors of one (problem, depth)
// objective through one Evaluator and returns −⟨C⟩ in input order,
// bit-identical to len(points) sequential Evaluator.NegExpectation
// calls. The Evaluator is built on the first EvalBatch.
//
// Deprecated: no optimizer evaluates batches; kept for the ladder's
// qaoa.batch_evals_per_s row in benchmark/ (ROADMAP item 1).
type BatchEvaluator struct {
	Problem *Problem
	Depth   int

	ev *Evaluator
}

// NewBatchEvaluator returns a batch evaluator at depth p ≥ 1; workers
// is ignored.
//
// Deprecated: see BatchEvaluator.
func NewBatchEvaluator(pb *Problem, p, workers int) *BatchEvaluator {
	if p < 1 {
		panic(fmt.Sprintf("qaoa: depth %d < 1", p))
	}
	return &BatchEvaluator{Problem: pb, Depth: p}
}

// Release retires the Evaluator, if one was built. The batch evaluator
// must not be used afterwards.
func (b *BatchEvaluator) Release() {
	if b.ev != nil {
		b.ev.Release()
	}
}

// EvalBatch evaluates −⟨C⟩ at every point and returns the values in
// input order.
func (b *BatchEvaluator) EvalBatch(points [][]float64) []float64 {
	if b.ev == nil {
		b.ev = NewEvaluator(b.Problem, b.Depth)
	}
	out := make([]float64, len(points))
	for i, x := range points {
		out[i] = b.ev.NegExpectation(x)
	}
	return out
}
