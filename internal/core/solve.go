package core

import (
	"context"
	"fmt"
	"math/rand"

	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/telemetry"
)

// Strategy selects how Solve chooses its start points and stages.
type Strategy int

const (
	// StrategyNaive takes the best of Options.Starts local optimizations
	// at the target depth: one random start is the paper's baseline QCR
	// flow (Fig. 1(a)), several the dataset recipe of Sec. III-A.
	StrategyNaive Strategy = iota
	// StrategyTwoLevel is the paper's Fig. 4 flow: optimize p = 1 from a
	// random start, predict the 2·pt target-depth angles from
	// (γ1OPT(p=1), β1OPT(p=1), pt), polish from the prediction.
	StrategyTwoLevel
)

// Options are the inputs of one Solve beside the problem.
type Options struct {
	Strategy  Strategy
	Depth     int                // target depth pt
	Optimizer optimize.Optimizer // nil selects optimize.Run's default
	Rng       *rand.Rand         // draws every random start

	// Starts is StrategyNaive's start count; below 1 it is 1. Seeds
	// (e.g. the INTERP initialization from the previous depth) replace
	// that many random starts, but never the last one: two or more
	// starts keep at least one random start. optimize.Run clips each
	// start into the domain. StrategyTwoLevel reads neither.
	Starts int
	Seeds  []qaoa.Params

	Predictor *Predictor // StrategyTwoLevel

	// Arena, when non-nil, lends every stage its state buffers, so a
	// serving loop reuses its 2^n vectors across solves. It only changes
	// where buffers come from, never what the kernels compute.
	Arena *qaoa.Arena
	// Recorder receives the optimizer traces of every run and, for
	// two-level, one span per stage ("twolevel.level1",
	// "twolevel.predict", "twolevel.level2").
	Recorder telemetry.Recorder
}

// RunResult is the outcome of one optimizer stage.
type RunResult struct {
	Params qaoa.Params // canonicalized optimum
	AR     float64
	NFev   int // QC calls for this stage, over all of its starts
}

// Result is the outcome of one Solve.
type Result struct {
	Params qaoa.Params // canonicalized optimum of the last stage reached
	AR     float64     // approximation ratio at Params
	NegF   float64     // objective −⟨C⟩ at the optimizer's own optimum
	NFev   int         // QC calls over every stage and start (the paper's FC)

	// Stages holds the optimizer stages in the order run: one for naive,
	// levels 1–2 for two-level; a cancelled solve holds the stages it
	// reached.
	Stages []RunResult
	// Predicted is the ML initialization of the target-depth stage.
	Predicted qaoa.Params
}

// Solve runs one optimization flow on a compiled problem. The context
// is threaded into every optimizer run, so a cancel or deadline takes
// effect within one optimizer step and Solve returns ctx.Err() with the
// stages it reached: each keeps the best start that finished, else the
// cancelled start's incumbent. NFev always counts the QC calls actually
// spent.
func Solve(ctx context.Context, pb *qaoa.Problem, o Options) (Result, error) {
	o.Recorder = telemetry.OrNop(o.Recorder)
	var res Result
	switch o.Strategy {
	case StrategyNaive:
		bounds := ParamBounds(o.Depth)
		d := descend(ctx, pb, bounds, startPoints(bounds, &o), &o)
		res.add(d)
		return res, d.err
	case StrategyTwoLevel:
		return solveTwoLevel(ctx, pb, &o)
	}
	return res, fmt.Errorf("core: unknown strategy %d", o.Strategy)
}

// startPoints lists a naive solve's max(o.Starts, 1) initial points:
// the seeds first (optimize.Run clips every start), then random draws.
func startPoints(bounds *optimize.Bounds, o *Options) [][]float64 {
	n := max(o.Starts, 1)
	points := make([][]float64, 0, n)
	for _, s := range o.Seeds {
		if len(points) == n-1 && n > 1 {
			break // always keep at least one random start
		}
		points = append(points, s.Vector())
	}
	for len(points) < n {
		points = append(points, bounds.Random(o.Rng))
	}
	return points
}

// solveTwoLevel runs the ML-initialized flow: level 1 from a random
// start, then the target depth from the prediction over its optimum.
func solveTwoLevel(ctx context.Context, pb *qaoa.Problem, o *Options) (Result, error) {
	if o.Depth < 2 {
		return Result{}, fmt.Errorf("core: two-level target depth %d < 2", o.Depth)
	}
	var res Result
	stage := func(span string, bounds *optimize.Bounds, x0 []float64) (RunResult, error) {
		end := o.Recorder.Span(span)
		d := descend(ctx, pb, bounds, [][]float64{x0}, o)
		end()
		res.add(d)
		return d.RunResult, d.err
	}

	bounds := ParamBounds(1)
	level1, err := stage("twolevel.level1", bounds, bounds.Random(o.Rng))
	if err != nil {
		return res, err
	}
	end := o.Recorder.Span("twolevel.predict")
	init, err := o.Predictor.Predict(FeaturesFromParams(level1.Params, o.Depth))
	end()
	if err != nil {
		return res, err
	}
	res.Predicted = init
	_, err = stage("twolevel.level2", ParamBounds(o.Depth), init.Vector())
	return res, err
}

// descent is what one stage's optimization loop found.
type descent struct {
	RunResult         // best start, canonicalized; NFev summed over all starts
	negF      float64 // the optimizer's objective at that start's optimum
	err       error   // ctx.Err() when a start was cancelled
}

// add appends a stage and makes it the result's answer.
func (r *Result) add(d descent) {
	r.Params, r.AR, r.NegF = d.Params, d.AR, d.negF
	r.NFev += d.NFev
	r.Stages = append(r.Stages, d.RunResult)
}

// descend is the one optimization loop: it runs the optimizer from each
// start in turn on one evaluator pair and keeps the best. A cancelled
// start ends the loop; its incumbent is the answer only when no start
// finished before it, and its evaluations are counted either way.
func descend(ctx context.Context, pb *qaoa.Problem, bounds *optimize.Bounds, starts [][]float64, o *Options) descent {
	depth := bounds.Dim() / 2
	ev := qaoa.NewEvaluatorArena(pb, depth, o.Arena)
	defer ev.Release()
	// Gradient-based optimizers take the adjoint path (Grad), so a
	// gradient costs one reverse sweep instead of 2n evaluations.
	var d descent
	var best optimize.Result
	for i, x0 := range starts {
		r := optimize.Run(ctx, optimize.Problem{F: ev.NegExpectation, Grad: ev.NegGrad, X0: x0, Bounds: bounds},
			optimize.Options{Optimizer: o.Optimizer, Recorder: o.Recorder})
		d.NFev += r.NFev
		cancelled := r.Status == optimize.Cancelled
		if i == 0 || !cancelled && r.F < best.F {
			best = r
		}
		if cancelled {
			d.err = ctx.Err()
			break
		}
	}
	// Canonicalize so that symmetric copies of the optimum (the QAOA
	// landscape's β-period and conjugation symmetries) map to one
	// representative; without this the ML targets are inconsistent
	// across graphs, the parameter trends of Figs. 2-3 wash out, and
	// serving-time features drift from the training set's.
	d.Params = pb.Canonicalize(qaoa.FromVector(best.X))
	d.AR = ev.ApproximationRatio(d.Params)
	d.negF = best.F
	return d
}
