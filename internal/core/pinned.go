package core

import (
	"context"
	"math/rand"

	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/telemetry"
)

// The spellings of Solve that benchmark/ still calls. A PR may not edit
// benchmark/ together with program code, so they stay as forwards until
// the benchmark-only PR of ROADMAP item 1 moves its call sites.

// TwoLevelResult is a StrategyTwoLevel Result in the shape benchmark/
// reads.
type TwoLevelResult struct {
	Level1    RunResult   // depth-1 optimization from a random start
	Predicted qaoa.Params // ML-predicted target-depth initialization
	Level2    RunResult   // target-depth optimization from Predicted
	TotalNFev int         // Level1.NFev + Level2.NFev (the paper's FC)
}

// AR returns the final approximation ratio (of the level-2 solution).
func (t TwoLevelResult) AR() float64 { return t.Level2.AR }

func runResult(r Result, err error) (RunResult, error) {
	return RunResult{Params: r.Params, AR: r.AR, NFev: r.NFev}, err
}

func twoLevelResult(r Result, err error) (TwoLevelResult, error) {
	out := TwoLevelResult{Predicted: r.Predicted, TotalNFev: r.NFev}
	if len(r.Stages) > 0 {
		out.Level1 = r.Stages[0]
	}
	if len(r.Stages) > 1 {
		out.Level2 = r.Stages[1]
	}
	return out, err
}

// solveSpec is Solve on a spec compiled for this one call.
func solveSpec(ctx context.Context, spec problem.Spec, o Options) (Result, error) {
	pb, err := qaoa.New(spec)
	if err != nil {
		return Result{}, err
	}
	return Solve(ctx, pb, o)
}

// NaiveRunArena is Solve with StrategyNaive on an arena.
//
// Deprecated: pinned by benchmark/ (ROADMAP item 1); call Solve.
func NaiveRunArena(ctx context.Context, arena *qaoa.Arena, pb *qaoa.Problem, pt int, opt optimize.Optimizer, rng *rand.Rand, rec telemetry.Recorder) (RunResult, error) {
	return runResult(Solve(ctx, pb, Options{Depth: pt, Optimizer: opt, Rng: rng, Arena: arena, Recorder: rec}))
}

// NaiveRunSpec is Solve with StrategyNaive on a spec.
//
// Deprecated: pinned by benchmark/ (ROADMAP item 1); call Solve.
func NaiveRunSpec(ctx context.Context, spec problem.Spec, pt int, opt optimize.Optimizer, rng *rand.Rand, rec telemetry.Recorder) (RunResult, error) {
	return runResult(solveSpec(ctx, spec, Options{Depth: pt, Optimizer: opt, Rng: rng, Recorder: rec}))
}

// TwoLevelArena is Solve with StrategyTwoLevel on an arena.
//
// Deprecated: pinned by benchmark/ (ROADMAP item 1); call Solve.
func TwoLevelArena(ctx context.Context, arena *qaoa.Arena, pb *qaoa.Problem, pt int, opt optimize.Optimizer, pred *Predictor, rng *rand.Rand, rec telemetry.Recorder) (TwoLevelResult, error) {
	return twoLevelResult(Solve(ctx, pb, Options{Strategy: StrategyTwoLevel, Depth: pt, Optimizer: opt, Predictor: pred, Rng: rng, Arena: arena, Recorder: rec}))
}

// TwoLevelCtx is Solve with StrategyTwoLevel.
//
// Deprecated: pinned by benchmark/ (ROADMAP item 1); call Solve.
func TwoLevelCtx(ctx context.Context, pb *qaoa.Problem, pt int, opt optimize.Optimizer, pred *Predictor, rng *rand.Rand, rec telemetry.Recorder) (TwoLevelResult, error) {
	return twoLevelResult(Solve(ctx, pb, Options{Strategy: StrategyTwoLevel, Depth: pt, Optimizer: opt, Predictor: pred, Rng: rng, Recorder: rec}))
}

// TwoLevelSpec is Solve with StrategyTwoLevel on a spec.
//
// Deprecated: pinned by benchmark/ (ROADMAP item 1); call Solve.
func TwoLevelSpec(ctx context.Context, spec problem.Spec, pt int, opt optimize.Optimizer, pred *Predictor, rng *rand.Rand, rec telemetry.Recorder) (TwoLevelResult, error) {
	return twoLevelResult(solveSpec(ctx, spec, Options{Strategy: StrategyTwoLevel, Depth: pt, Optimizer: opt, Predictor: pred, Rng: rng, Recorder: rec}))
}
