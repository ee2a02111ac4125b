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
	// StrategyNaive optimizes the target depth from one random start
	// (the paper's baseline QCR flow, Fig. 1(a)).
	StrategyNaive Strategy = iota
	// StrategyMultiStart takes the best of Options.Starts local
	// optimizations (the dataset recipe of Sec. III-A).
	StrategyMultiStart
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

	// Starts is StrategyMultiStart's start count. Seeds (e.g. the INTERP
	// initialization from the previous depth) replace that many random
	// starts, clipped into the domain, but never the last one: a
	// multistart of two or more keeps at least one random start.
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

	// Stages holds the optimizer stages in the order run: one for naive
	// and multistart, levels 1–2 for two-level; a cancelled solve holds
	// the stages it reached.
	Stages []RunResult
	// Predicted is the ML initialization of the target-depth stage.
	Predicted qaoa.Params
}

// Solve runs one optimization flow on a compiled problem. The context
// is threaded into every optimizer run, so a cancel or deadline takes
// effect within one optimizer step and Solve returns ctx.Err() with what
// it has: naive the optimizer's incumbent, multistart the best of the
// starts that finished (the cancelled one is dropped; only NFev is set
// if none finished), two-level the stages it reached, the last of them
// an incumbent. NFev always counts the QC calls actually spent.
func Solve(ctx context.Context, pb *qaoa.Problem, o Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o.Recorder = telemetry.OrNop(o.Recorder)
	var res Result
	switch o.Strategy {
	case StrategyNaive:
		bounds := ParamBounds(o.Depth)
		d := descend(ctx, pb, bounds, [][]float64{bounds.Random(o.Rng)}, &o)
		res.add(d)
		return res, d.err
	case StrategyMultiStart:
		if o.Starts < 1 {
			return res, fmt.Errorf("core: multistart with %d starts", o.Starts)
		}
		bounds := ParamBounds(o.Depth)
		d := descend(ctx, pb, bounds, startPoints(bounds, &o), &o)
		if d.completed == 0 {
			return Result{NFev: d.NFev}, ctx.Err()
		}
		res.add(d)
		return res, ctx.Err()
	case StrategyTwoLevel:
		return solveTwoLevel(ctx, pb, &o)
	}
	return res, fmt.Errorf("core: unknown strategy %d", o.Strategy)
}

// startPoints lists a multistart's initial points: the seeds first,
// then random draws up to o.Starts.
func startPoints(bounds *optimize.Bounds, o *Options) [][]float64 {
	points := make([][]float64, 0, o.Starts)
	for _, s := range o.Seeds {
		if len(points) == o.Starts-1 && o.Starts > 1 {
			break // always keep at least one random start
		}
		points = append(points, bounds.Clip(s.Vector()))
	}
	for len(points) < o.Starts {
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
	completed int     // starts that ran to their own termination
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
// finished before it (a lone naive or staged start — multistart drops
// it), and its evaluations are counted either way.
func descend(ctx context.Context, pb *qaoa.Problem, bounds *optimize.Bounds, starts [][]float64, o *Options) descent {
	depth := bounds.Dim() / 2
	ev := qaoa.NewEvaluatorArena(pb, depth, o.Arena)
	defer ev.Release()
	// Gradient-based optimizers take the adjoint path (Grad), so a
	// gradient costs one reverse sweep instead of 2n evaluations.
	var d descent
	var best optimize.Result
	for _, x0 := range starts {
		r := optimize.Run(ctx, optimize.Problem{F: ev.NegExpectation, Grad: ev.NegGrad, X0: x0, Bounds: bounds},
			optimize.Options{Optimizer: o.Optimizer, Recorder: o.Recorder})
		d.NFev += r.NFev
		if r.Status == optimize.Cancelled {
			d.err = ctx.Err()
			if d.completed == 0 {
				best = r
			}
			break
		}
		if d.completed == 0 || r.F < best.F {
			best = r
		}
		d.completed++
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
