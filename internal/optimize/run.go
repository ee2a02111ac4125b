package optimize

import (
	"context"
	"time"

	"qaoaml/internal/telemetry"
)

// GradFunc computes the analytic gradient ∇f(x) into grad
// (len(grad) == len(x)). It must not retain either slice.
type GradFunc func(x, grad []float64)

// Problem bundles everything that defines one minimization: the
// objective, its gradient, the start point and the box bounds.
type Problem struct {
	F      Func      // objective (required)
	X0     []float64 // start point (clipped into Bounds)
	Bounds *Bounds   // box constraints (required)

	// Grad supplies ∇F. The two gradient methods (L-BFGS-B, SLSQP)
	// require it and count each call in Result.NGev, never in NFev;
	// Nelder-Mead and COBYLA ignore it.
	Grad GradFunc

	// Deprecated: ignored; benchmark/ladder.go still sets it (ROADMAP item 1).
	Batch func(points [][]float64) []float64
}

// Options carries the cross-cutting run controls. The zero value is
// valid: L-BFGS-B, no recording.
type Options struct {
	// Optimizer selects the algorithm (default &LBFGSB{}). The value is
	// read-only during the run, so one Optimizer may serve concurrent
	// Runs.
	Optimizer Optimizer
	// Recorder receives per-iteration traces and per-run FC/latency
	// observations (default telemetry.Nop). It is shared across
	// goroutines when Runs execute concurrently, so implementations
	// must be thread-safe (telemetry.Memory is).
	Recorder telemetry.Recorder
}

// Run is the one way to run an optimizer; multistart is a loop of Runs
// (core.Solve). The context is checked once per outer iteration, so
// cancellation and deadlines take effect within one optimizer step and
// the returned Result carries the best point found so far with
// Status == Cancelled.
func Run(ctx context.Context, p Problem, opts Options) Result {
	opt := opts.Optimizer
	if opt == nil {
		opt = &LBFGSB{}
	}
	rec := telemetry.OrNop(opts.Recorder)
	start := time.Now()
	var res Result
	if err := ctx.Err(); err != nil {
		// Cancelled before the run: report the clipped start as the
		// incumbent (one evaluation, so F is consistent with X), counted
		// like any other run's.
		x := prepareStart(p.X0, p.Bounds)
		res = Result{X: x, F: p.F(x), NFev: 1, Status: Cancelled,
			Message: "context cancelled before start: " + err.Error()}
	} else {
		res = opt.run(&runEnv{
			f: p.F, grad: p.Grad, x0: p.X0, bounds: p.Bounds,
			ctx: ctx, rec: rec, quiet: quietRecorder(rec), name: opt.Name(),
		})
	}
	rec.Count("optimize.runs", 1)
	rec.Count("optimize.fev_total", int64(res.NFev))
	rec.Observe("optimize.nfev", float64(res.NFev))
	if res.NGev > 0 {
		rec.Count("optimize.gev_total", int64(res.NGev))
		rec.Observe("optimize.ngev", float64(res.NGev))
	}
	rec.Observe("optimize.run_ms", float64(time.Since(start).Nanoseconds())/1e6)
	return res
}

// runEnv carries one run's inputs and cross-cutting concerns (context,
// recorder) into the optimizer inner loops.
type runEnv struct {
	f      Func
	grad   GradFunc // Problem.Grad; only L-BFGS-B and SLSQP read it
	x0     []float64
	bounds *Bounds
	ctx    context.Context
	rec    telemetry.Recorder
	quiet  bool   // rec reads no iteration event (quietRecorder)
	name   string // Source for emitted events
}

// quietRecorder reports whether rec reads no iteration event, so a run
// need not compute what only an event carries: Nop drops events and
// Memory keeps only counters, histograms and spans. A Tee is never
// quiet, whatever its primary.
func quietRecorder(rec telemetry.Recorder) bool {
	switch rec.(type) {
	case telemetry.Nop, *telemetry.Memory:
		return true
	}
	return false
}

// stop reports whether the context is done; when it is, *msg is set to
// the termination reason.
func (e *runEnv) stop(msg *string) bool {
	if err := e.ctx.Err(); err != nil {
		*msg = "context cancelled: " + err.Error()
		return true
	}
	return false
}

// emit publishes the state entering iteration iter.
func (e *runEnv) emit(iter int, f, gnorm, step float64, nfev int) {
	e.rec.Iteration(telemetry.IterEvent{Source: e.name, Iter: iter, F: f, GNorm: gnorm, Step: step, NFev: nfev})
}

// gradient returns the gradient source of the two gradient-based
// optimizers: Problem.Grad under an "optimize.grad" span, one NGev per
// call. A nil Grad is a programming error, like nil Bounds.
func (e *runEnv) gradient(ngev *int) func(dst, at []float64) {
	if e.grad == nil {
		panic("optimize: " + e.name + " needs Problem.Grad")
	}
	return func(dst, at []float64) {
		end := e.rec.Span("optimize.grad")
		e.grad(at, dst)
		end()
		*ngev++
	}
}

// statusOf folds the two termination booleans into a Status.
func statusOf(converged, cancelled bool) Status {
	switch {
	case cancelled:
		return Cancelled
	case converged:
		return Converged
	default:
		return MaxIter
	}
}
