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
// objective, optional analytic gradients, the start point and the box
// bounds.
type Problem struct {
	F      Func      // objective (required)
	X0     []float64 // start point (clipped into Bounds)
	Bounds *Bounds   // box constraints (required)

	// Grad, when non-nil, supplies analytic gradients. The gradient-based
	// optimizers (L-BFGS-B, SLSQP) then skip finite differences entirely:
	// gradients cost zero function evaluations and are counted in
	// Result.NGev instead. Optimizers that do not use gradients ignore it.
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
	if ctx == nil {
		ctx = context.Background()
	}
	opt := opts.Optimizer
	if opt == nil {
		opt = &LBFGSB{}
	}
	rec := telemetry.OrNop(opts.Recorder)
	if err := ctx.Err(); err != nil {
		// Cancelled before the run: report the clipped start as the
		// incumbent (one evaluation, so F is consistent with X).
		x := prepareStart(p.X0, p.Bounds)
		return Result{X: x, F: p.F(x), NFev: 1, Status: Cancelled,
			Message: "context cancelled before start: " + err.Error()}
	}
	env := &runEnv{
		f: p.F, agrad: p.Grad, x0: p.X0, bounds: p.Bounds,
		ctx: ctx, rec: rec, name: opt.Name(),
	}
	start := time.Now()
	res := opt.run(env)
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
	agrad  GradFunc // non-nil: analytic gradient replaces finite differences
	x0     []float64
	bounds *Bounds
	ctx    context.Context
	rec    telemetry.Recorder
	name   string // Source for emitted events
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
// optimizers: the analytic Grad when set (a span and one NGev per call),
// else serial central differences through cnt, so every probe counts
// as a function call.
func (e *runEnv) gradient(cnt *counter, ngev *int) func(dst, at []float64) {
	if e.agrad != nil {
		return func(dst, at []float64) {
			end := e.rec.Span("optimize.grad")
			e.agrad(at, dst)
			end()
			*ngev++
		}
	}
	gws := NewGradientWorkspace(len(e.x0))
	return func(dst, at []float64) { gws.Gradient(dst, cnt.call, at, e.bounds) }
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
