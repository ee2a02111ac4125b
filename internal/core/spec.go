package core

import (
	"context"
	"math/rand"

	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/telemetry"
)

// Spec-level entry points: every optimization flow in this package
// accepts a problem.Spec and compiles it once through qaoa.New —
// NewProblem is New on a MaxCut spec, so these wrappers are
// bit-identical to calling the *qaoa.Problem variants on its output.

// NaiveRunSpec is NaiveRunCtx over a problem spec (the baseline flow
// for any family).
func NaiveRunSpec(ctx context.Context, spec problem.Spec, pt int, opt optimize.Optimizer, rng *rand.Rand, rec telemetry.Recorder) (RunResult, error) {
	pb, err := qaoa.New(spec)
	if err != nil {
		return RunResult{}, err
	}
	return NaiveRunCtx(ctx, pb, pt, opt, rng, rec)
}

// TwoLevelSpec is TwoLevelCtx over a problem spec (the paper's Fig. 4
// flow for any family).
func TwoLevelSpec(ctx context.Context, spec problem.Spec, pt int, opt optimize.Optimizer, pred *Predictor, rng *rand.Rand, rec telemetry.Recorder) (TwoLevelResult, error) {
	pb, err := qaoa.New(spec)
	if err != nil {
		return TwoLevelResult{}, err
	}
	return TwoLevelCtx(ctx, pb, pt, opt, pred, rng, rec)
}
