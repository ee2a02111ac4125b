package optimize

import (
	"context"
	"math"
	"testing"
	"time"

	"qaoaml/internal/telemetry"
)

func TestRunDefaultsToLBFGSB(t *testing.T) {
	b := UniformBounds(2, -2, 2)
	r := Run(context.Background(), Problem{F: sphere([]float64{1, 1}), X0: []float64{0, 0}, Bounds: b}, Options{})
	if r.F > 1e-5 || r.Status != Converged {
		t.Fatalf("default Run: F=%v status=%v (%s)", r.F, r.Status, r.Message)
	}
}

// TestRunMatchesMinimize pins the wrapper contract: Minimize and Run
// produce bit-identical results (same trajectory, NFev, message).
func TestRunMatchesMinimize(t *testing.T) {
	b := UniformBounds(3, -2, 2)
	f := sphere([]float64{0.7, -0.3, 1.2})
	x0 := []float64{-1, 1, 0}
	for _, opt := range allOptimizers() {
		want := opt.Minimize(f, x0, b)
		got := Run(context.Background(), Problem{F: f, X0: x0, Bounds: b}, Options{Optimizer: opt})
		if got.F != want.F || got.NFev != want.NFev || got.Iters != want.Iters || got.Message != want.Message {
			t.Errorf("%s: Run != Minimize: got %+v want %+v", opt.Name(), got, want)
		}
		for i := range want.X {
			if got.X[i] != want.X[i] {
				t.Errorf("%s: X[%d] differs: %v != %v", opt.Name(), i, got.X[i], want.X[i])
			}
		}
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := UniformBounds(2, -2, 2)
	for _, opt := range allOptimizers() {
		r := Run(ctx, Problem{F: sphere([]float64{0, 0}), X0: []float64{1, 1}, Bounds: b}, Options{Optimizer: opt})
		if r.Status != Cancelled {
			t.Errorf("%s: status = %v, want Cancelled", opt.Name(), r.Status)
		}
		if r.NFev > 1 {
			t.Errorf("%s: pre-cancelled run spent %d evaluations", opt.Name(), r.NFev)
		}
	}
}

// TestRunCancelMidRun cancels from inside the objective and checks
// every optimizer stops within one outer step, keeping its incumbent.
func TestRunCancelMidRun(t *testing.T) {
	b := UniformBounds(4, -2, 2)
	for _, opt := range allOptimizers() {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		f := func(x []float64) float64 {
			calls++
			if calls == 20 {
				cancel()
			}
			return rosenbrockND(x)
		}
		r := Run(ctx, Problem{F: f, X0: []float64{-1.2, 1, -1.2, 1}, Bounds: b}, Options{Optimizer: opt})
		cancel()
		if r.Status != Cancelled {
			t.Errorf("%s: status = %v (%s), want Cancelled", opt.Name(), r.Status, r.Message)
			continue
		}
		if r.Converged {
			t.Errorf("%s: cancelled run reports Converged", opt.Name())
		}
		// One outer step costs at most one gradient (2n evals) plus a
		// full line search / simplex rebuild; 3·30 evals is generous.
		if r.NFev > 20+90 {
			t.Errorf("%s: cancelled at call 20 but spent %d evaluations", opt.Name(), r.NFev)
		}
		if len(r.X) != 4 || math.IsNaN(r.F) {
			t.Errorf("%s: cancelled result lost the incumbent: %+v", opt.Name(), r)
		}
	}
}

func TestRunDeadlineSetsCancelled(t *testing.T) {
	b := UniformBounds(4, -2, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	slow := func(x []float64) float64 {
		time.Sleep(200 * time.Microsecond)
		return rosenbrockND(x)
	}
	r := Run(ctx, Problem{F: slow, X0: []float64{-1.2, 1, -1.2, 1}, Bounds: b},
		Options{Optimizer: &LBFGSB{MaxIter: 10000}})
	if r.Status != Cancelled {
		t.Fatalf("status = %v (%s), want Cancelled on deadline", r.Status, r.Message)
	}
}

func TestRunCallbackStops(t *testing.T) {
	b := UniformBounds(4, -2, 2)
	for _, opt := range allOptimizers() {
		events := 0
		r := Run(context.Background(), Problem{F: rosenbrockND, X0: []float64{-1.2, 1, -1.2, 1}, Bounds: b},
			Options{Optimizer: opt, Callback: func(ev telemetry.IterEvent) bool {
				events++
				return ev.Iter >= 2
			}})
		if r.Status != Cancelled || r.Message != callbackStopMsg {
			t.Errorf("%s: status = %v (%q), want callback stop", opt.Name(), r.Status, r.Message)
		}
		if events != 3 { // iters 0, 1, 2
			t.Errorf("%s: callback saw %d events, want 3", opt.Name(), events)
		}
	}
}

// TestRunEmitsTraces checks all four optimizers emit per-iteration
// events with sane cumulative NFev.
func TestRunEmitsTraces(t *testing.T) {
	b := UniformBounds(3, -2, 2)
	f := sphere([]float64{0.7, -0.3, 1.2})
	for _, opt := range allOptimizers() {
		mem := telemetry.NewMemory()
		r := Run(context.Background(), Problem{F: f, X0: []float64{-1, 1, 0}, Bounds: b},
			Options{Optimizer: opt, Recorder: mem})
		trace := mem.Trace()
		if len(trace) == 0 {
			t.Errorf("%s: no iteration events", opt.Name())
			continue
		}
		last := -1
		for i, ev := range trace {
			if ev.Source != opt.Name() {
				t.Errorf("%s: event source %q", opt.Name(), ev.Source)
			}
			if ev.NFev < last {
				t.Errorf("%s: NFev not monotone at event %d: %d < %d", opt.Name(), i, ev.NFev, last)
			}
			last = ev.NFev
			if math.IsNaN(ev.F) || math.IsNaN(ev.GNorm) || math.IsNaN(ev.Step) ||
				math.IsInf(ev.GNorm, 0) || math.IsInf(ev.Step, 0) {
				t.Errorf("%s: non-finite event fields: %+v", opt.Name(), ev)
			}
		}
		if last > r.NFev {
			t.Errorf("%s: last event NFev %d exceeds result NFev %d", opt.Name(), last, r.NFev)
		}
		if got := mem.CounterValue("optimize.runs"); got != 1 {
			t.Errorf("%s: optimize.runs = %d", opt.Name(), got)
		}
		if got := mem.CounterValue("optimize.fev_total"); got != int64(r.NFev) {
			t.Errorf("%s: optimize.fev_total = %d, want %d", opt.Name(), got, r.NFev)
		}
		if h, ok := mem.HistogramSnapshot("optimize.nfev"); !ok || h.Count != 1 {
			t.Errorf("%s: optimize.nfev histogram missing", opt.Name())
		}
		if h, ok := mem.HistogramSnapshot("optimize.run_ms"); !ok || h.Count != 1 {
			t.Errorf("%s: optimize.run_ms histogram missing", opt.Name())
		}
	}
}

func TestRunMaxNFevCapsBudget(t *testing.T) {
	b := UniformBounds(4, -2, 2)
	for _, opt := range allOptimizers() {
		r := Run(context.Background(), Problem{F: rosenbrockND, X0: []float64{-1.2, 1, -1.2, 1}, Bounds: b},
			Options{Optimizer: opt, MaxNFev: 12})
		// Gradient methods may overshoot within one probe batch (2n+1).
		if r.NFev > 12+2*4+1 {
			t.Errorf("%s: NFev = %d exceeds Options.MaxNFev cap", opt.Name(), r.NFev)
		}
		if r.Status == Converged && !r.Converged {
			t.Errorf("%s: Status/Converged mismatch: %+v", opt.Name(), r)
		}
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{Converged: "converged", MaxIter: "maxiter", Cancelled: "cancelled"}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestStatusMatchesConvergedFlag pins the redundancy contract between
// the legacy bool and the new enum on ordinary (non-cancelled) runs.
func TestStatusMatchesConvergedFlag(t *testing.T) {
	b := UniformBounds(2, -2, 2)
	for _, opt := range allOptimizers() {
		easy := opt.Minimize(sphere([]float64{0, 0}), []float64{1, 1}, b)
		if easy.Converged != (easy.Status == Converged) {
			t.Errorf("%s: easy run Status %v vs Converged %v", opt.Name(), easy.Status, easy.Converged)
		}
	}
	starved := (&LBFGSB{MaxFev: 5}).Minimize(rosenbrock, []float64{-1.2, 1}, b)
	if starved.Status != MaxIter || starved.Converged {
		t.Errorf("starved run: status %v converged %v, want MaxIter", starved.Status, starved.Converged)
	}
}

// TestRunExternalOptimizerFallback drives Run with an Optimizer that
// does not implement the internal runner hook.
func TestRunExternalOptimizerFallback(t *testing.T) {
	b := UniformBounds(1, -1, 1)
	ext := externalOpt{}
	r := Run(context.Background(), Problem{F: func(x []float64) float64 { return x[0] * x[0] }, X0: []float64{0.5}, Bounds: b},
		Options{Optimizer: ext})
	if r.Status != Converged || r.F != 0 {
		t.Fatalf("external fallback: %+v", r)
	}
}

type externalOpt struct{}

func (externalOpt) Name() string { return "external" }

func (externalOpt) Minimize(f Func, x0 []float64, bounds *Bounds) Result {
	return Result{X: []float64{0}, F: f([]float64{0}), NFev: 1, Converged: true, Message: "exact"}
}
