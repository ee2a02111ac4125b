package qaoa

// References the tests hold an Evaluator's reads to. Both are built
// from what the Evaluator itself uses (ratioOf, BestSampled), so
// neither is a second reader in the package.

// stateVectorRatio is the approximation ratio of Problem.Expectation's
// own state vector: the reference the depth-1 closed form is held to,
// and at depth ≥ 2 bit-identical to Evaluator.ApproximationRatio.
func stateVectorRatio(pb *Problem, pr Params) float64 { return pb.ratioOf(pb.Expectation(pr)) }

// bestSampled is a fresh evaluator's readout at pr's depth, on a
// workspace no earlier call has touched.
func bestSampled(pb *Problem, pr Params) (score float64, assign uint64) {
	return NewEvaluator(pb, pr.Depth()).BestSampled(pr)
}
