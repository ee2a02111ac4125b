package telemetry

// IterEvent is one optimizer iteration trace point. The producers emit
// the state *entering* iteration Iter, so NFev is the cumulative
// function-evaluation count at that moment and the last event of a run
// shows the cost of everything before the final step.
//
// GNorm and Step are per-algorithm convergence signals: the projected
// gradient ∞-norm and line-search step for the gradient methods
// (L-BFGS-B, SLSQP), the simplex function-value spread and diameter for
// Nelder-Mead, and the model spread and trust-region radius for COBYLA.
// All values are finite (never NaN/Inf) so events marshal to JSON.
type IterEvent struct {
	Source string  `json:"source"` // optimizer name, e.g. "L-BFGS-B"
	Iter   int     `json:"iter"`   // 0-based outer iteration
	F      float64 `json:"f"`      // incumbent objective value
	GNorm  float64 `json:"gnorm"`  // gradient-like convergence signal
	Step   float64 `json:"step"`   // step-size-like progress signal
	NFev   int     `json:"nfev"`   // cumulative function evaluations
}

// Recorder receives telemetry from producers. Implementations must be
// safe for concurrent use: dataset generation shares one Recorder
// across all worker goroutines.
//
// Method contracts:
//
//   - Iteration receives per-iteration optimizer traces.
//   - Count adds delta to the named counter.
//   - Observe records a sample into the named histogram.
//   - Span marks the start of a named region and returns the function
//     that ends it; sinks typically aggregate count and duration.
//
// The no-op implementation (Nop) must not allocate on any path, so
// recording can stay enabled unconditionally in hot loops.
type Recorder interface {
	Iteration(ev IterEvent)
	Count(name string, delta int64)
	Observe(name string, v float64)
	Span(name string) (end func())
}

// Nop is the zero-cost Recorder: every method is an empty body and
// Span returns a shared closed-over no-op, so no call allocates.
type Nop struct{}

var _ Recorder = Nop{}

var nopEnd = func() {}

// Iteration implements Recorder.
func (Nop) Iteration(IterEvent) {}

// Count implements Recorder.
func (Nop) Count(string, int64) {}

// Observe implements Recorder.
func (Nop) Observe(string, float64) {}

// Span implements Recorder.
func (Nop) Span(string) func() { return nopEnd }

// OrNop returns rec, or Nop if rec is nil — the standard way producers
// default an optional Recorder argument.
func OrNop(rec Recorder) Recorder {
	if rec == nil {
		return Nop{}
	}
	return rec
}

// tee forwards everything to the primary Recorder and additionally
// copies Iteration events to a callback. It is how a consumer taps the
// per-iteration trace stream of one producer (e.g. to stream optimizer
// progress to a waiting client) without forking the counter and
// histogram aggregation away from the shared sink.
type tee struct {
	Recorder
	onIter func(IterEvent)
}

// Tee returns a Recorder that behaves exactly like primary, except that
// every Iteration event is also passed to onIter (after the primary has
// seen it). onIter must be safe for concurrent use if the producer is
// concurrent. A nil onIter returns primary unchanged.
func Tee(primary Recorder, onIter func(IterEvent)) Recorder {
	primary = OrNop(primary)
	if onIter == nil {
		return primary
	}
	return tee{Recorder: primary, onIter: onIter}
}

// Iteration implements Recorder.
func (t tee) Iteration(ev IterEvent) {
	t.Recorder.Iteration(ev)
	t.onIter(ev)
}
