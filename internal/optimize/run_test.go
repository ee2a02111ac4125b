package optimize

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"qaoaml/internal/telemetry"
)

func TestRunDefaultsToLBFGSB(t *testing.T) {
	b := uniformBounds(2, -2, 2)
	r := Run(context.Background(), Problem{F: sphere([]float64{1, 1}), Grad: sphereGrad([]float64{1, 1}), X0: []float64{0, 0}, Bounds: b}, Options{})
	if r.F > 1e-5 || r.Status != Converged {
		t.Fatalf("default Run: F=%v status=%v (%s)", r.F, r.Status, r.Message)
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := uniformBounds(2, -2, 2)
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

// A run handed a context that is already cancelled still spends one
// evaluation on its start point, and /metrics counts it: one run and its
// evaluation in the counters, like any other run's.
func TestRunCancelledBeforeStartIsCounted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := uniformBounds(2, -2, 2)
	for _, opt := range allOptimizers() {
		mem := telemetry.NewMemory()
		r := Run(ctx, Problem{F: sphere([]float64{0, 0}), X0: []float64{1, 1}, Bounds: b}, Options{Optimizer: opt, Recorder: mem})
		if got := mem.CounterValue("optimize.runs"); got != 1 {
			t.Errorf("%s: optimize.runs = %d, want 1", opt.Name(), got)
		}
		if got := mem.CounterValue("optimize.fev_total"); got != int64(r.NFev) || got != 1 {
			t.Errorf("%s: optimize.fev_total = %d, want NFev = %d = 1", opt.Name(), got, r.NFev)
		}
	}
}

// TestRunCancelMidRun cancels from inside the objective and checks
// every optimizer stops within one outer step, keeping its incumbent.
func TestRunCancelMidRun(t *testing.T) {
	b := uniformBounds(4, -2, 2)
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
		r := Run(ctx, Problem{F: f, Grad: rosenbrockNDGrad, X0: []float64{-1.2, 1, -1.2, 1}, Bounds: b}, Options{Optimizer: opt})
		cancel()
		if r.Status != Cancelled {
			t.Errorf("%s: status = %v (%s), want Cancelled", opt.Name(), r.Status, r.Message)
			continue
		}
		// One outer step costs at most a full line search or simplex
		// rebuild; 3·30 evals is generous.
		if r.NFev > 20+90 {
			t.Errorf("%s: cancelled at call 20 but spent %d evaluations", opt.Name(), r.NFev)
		}
		if len(r.X) != 4 || math.IsNaN(r.F) {
			t.Errorf("%s: cancelled result lost the incumbent: %+v", opt.Name(), r)
		}
	}
}

func TestRunDeadlineSetsCancelled(t *testing.T) {
	b := uniformBounds(4, -2, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	slow := func(x []float64) float64 {
		time.Sleep(200 * time.Microsecond)
		return rosenbrockND(x)
	}
	r := Run(ctx, Problem{F: slow, Grad: rosenbrockNDGrad, X0: []float64{-1.2, 1, -1.2, 1}, Bounds: b},
		Options{Optimizer: &LBFGSB{}})
	if r.Status != Cancelled {
		t.Fatalf("status = %v (%s), want Cancelled on deadline", r.Status, r.Message)
	}
}

// A per-iteration callback stops a run by cancelling its context: the
// event for iteration 2 cancels, and the check entering iteration 3
// ends the run.
func TestRunCallbackStops(t *testing.T) {
	b := uniformBounds(4, -2, 2)
	for _, opt := range allOptimizers() {
		ctx, cancel := context.WithCancel(context.Background())
		events := 0
		r := Run(ctx, Problem{F: rosenbrockND, Grad: rosenbrockNDGrad, X0: []float64{-1.2, 1, -1.2, 1}, Bounds: b},
			Options{Optimizer: opt, Recorder: telemetry.Tee(nil, func(ev telemetry.IterEvent) {
				events++
				if ev.Iter >= 2 {
					cancel()
				}
			})})
		cancel()
		if r.Status != Cancelled || r.Iters != 3 {
			t.Errorf("%s: status = %v after %d iterations (%q), want Cancelled after 3", opt.Name(), r.Status, r.Iters, r.Message)
		}
		if events != 3 { // iters 0, 1, 2
			t.Errorf("%s: callback saw %d events, want 3", opt.Name(), events)
		}
	}
}

// TestRunEmitsTraces checks all four optimizers emit per-iteration
// events with sane cumulative NFev, captured through a Tee on the sink
// that aggregates the run's counters and histograms.
func TestRunEmitsTraces(t *testing.T) {
	b := uniformBounds(3, -2, 2)
	center := []float64{0.7, -0.3, 1.2}
	for _, opt := range allOptimizers() {
		mem := telemetry.NewMemory()
		var trace []telemetry.IterEvent
		r := Run(context.Background(), Problem{F: sphere(center), Grad: sphereGrad(center), X0: []float64{-1, 1, 0}, Bounds: b},
			Options{Optimizer: opt, Recorder: telemetry.Tee(mem, func(ev telemetry.IterEvent) { trace = append(trace, ev) })})
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
		if h, ok := mem.Snapshot().Histograms["optimize.nfev"]; !ok || h.Count != 1 {
			t.Errorf("%s: optimize.nfev histogram missing", opt.Name())
		}
		if h, ok := mem.Snapshot().Histograms["optimize.run_ms"]; !ok || h.Count != 1 {
			t.Errorf("%s: optimize.run_ms histogram missing", opt.Name())
		}
	}
}

// Every run through Run is capped by an evaluation budget: the fixed
// defaults of L-BFGS-B (2000·n), Nelder-Mead (400·n), SLSQP (2000·n) and
// COBYLA (1000·n), or COBYLA.MaxFev when set. A run that reports the
// budget exhausted has status MaxIter, and a 12-call cap is spent.
func TestRunMaxNFevCapsBudget(t *testing.T) {
	const n = 4
	b := uniformBounds(n, -2, 2)
	for _, c := range []struct {
		opt    Optimizer
		budget int
	}{
		{&LBFGSB{}, 2000 * n},
		{&NelderMead{}, 400 * n},
		{&SLSQP{}, 2000 * n},
		{&COBYLA{}, 1000 * n},
		{&COBYLA{MaxFev: 12}, 12},
	} {
		r := Run(context.Background(), Problem{F: rosenbrockND, Grad: rosenbrockNDGrad, X0: []float64{-1.2, 1, -1.2, 1}, Bounds: b},
			Options{Optimizer: c.opt})
		// A line-search try or simplex rebuild may overshoot by one
		// probe batch (n+1).
		if r.NFev > c.budget+n+1 {
			t.Errorf("%s: NFev = %d exceeds budget %d", c.opt.Name(), r.NFev, c.budget)
		}
		exhausted := r.Message == "function evaluation budget exhausted"
		if exhausted && (r.Status != MaxIter || r.NFev < c.budget) {
			t.Errorf("%s (budget %d): NFev = %d, status %v for an exhausted budget",
				c.opt.Name(), c.budget, r.NFev, r.Status)
		}
		if c.budget == 12 && !exhausted {
			t.Errorf("%s: MaxFev 12 not spent: NFev = %d, status %v (%s)",
				c.opt.Name(), r.NFev, r.Status, r.Message)
		}
	}
}

// Status is the one termination flag: Converged exactly when a
// tolerance was met, MaxIter when the budget ran out first.
func TestStatusMatchesConvergedFlag(t *testing.T) {
	b := uniformBounds(2, -2, 2)
	for _, opt := range allOptimizers() {
		easy := minimize(opt, sphere([]float64{0, 0}), sphereGrad([]float64{0, 0}), []float64{1, 1}, b)
		if easy.Status != Converged || easy.Message == "function evaluation budget exhausted" {
			t.Errorf("%s: easy run: status %v (%s)", opt.Name(), easy.Status, easy.Message)
		}
	}
	starved := minimize(&COBYLA{MaxFev: 5}, rosenbrock, nil, []float64{-1.2, 1}, b)
	if starved.Status != MaxIter || starved.Message != "function evaluation budget exhausted" {
		t.Errorf("starved run: status %v (%s), want MaxIter", starved.Status, starved.Message)
	}
}

// Problem.Batch is deprecated and ignored: setting it changes no bit of
// any optimizer's result, and no optimizer ever calls it.
func TestRunWithBatchIsBitIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objectives := []struct {
		name string
		f    Func
		g    GradFunc
		b    *Bounds
	}{
		{"sphere", sphere([]float64{0.3, -0.2}), sphereGrad([]float64{0.3, -0.2}), uniformBounds(2, -2, 2)},
		{"rosenbrock", rosenbrock, rosenbrockNDGrad, uniformBounds(2, -2, 2)},
		{"qaoa-like", qaoaLike, qaoaLikeGrad, uniformBounds(2, 0, math.Pi)},
	}
	for _, opt := range allOptimizers() {
		for _, obj := range objectives {
			x0 := obj.b.Random(rng)
			serial := Run(context.Background(), Problem{F: obj.f, Grad: obj.g, X0: x0, Bounds: obj.b}, Options{Optimizer: opt})
			batches := 0
			batch := func(points [][]float64) []float64 {
				batches++
				out := make([]float64, len(points))
				for i, x := range points {
					out[i] = obj.f(x)
				}
				return out
			}
			batched := Run(context.Background(), Problem{F: obj.f, Grad: obj.g, Batch: batch, X0: x0, Bounds: obj.b}, Options{Optimizer: opt})
			if !reflect.DeepEqual(serial, batched) {
				t.Errorf("%s/%s from %v: batch result %+v != serial %+v", opt.Name(), obj.name, x0, batched, serial)
			}
			if batches != 0 {
				t.Errorf("%s/%s: Batch called %d times", opt.Name(), obj.name, batches)
			}
		}
	}
}

// Nelder–Mead computes the simplex diameter for a recorder only when
// the recorder reads iteration events: Nop and Memory do not, a Tee
// does. Skipping it changes nothing a run returns.
func TestQuietRecorder(t *testing.T) {
	mem := telemetry.NewMemory()
	for _, c := range []struct {
		name  string
		rec   telemetry.Recorder
		quiet bool
	}{
		{"nop", telemetry.Nop{}, true},
		{"memory", mem, true},
		{"tee", telemetry.Tee(mem, func(telemetry.IterEvent) {}), false},
	} {
		if got := quietRecorder(c.rec); got != c.quiet {
			t.Errorf("%s: quietRecorder = %v, want %v", c.name, got, c.quiet)
		}
	}
	run := func(rec telemetry.Recorder) Result {
		return Run(context.Background(), Problem{F: rosenbrock, X0: []float64{-1.2, 1}, Bounds: uniformBounds(2, -2, 2)},
			Options{Optimizer: &NelderMead{Tol: 1e-8}, Recorder: rec})
	}
	want := run(telemetry.Nop{})
	for _, rec := range []telemetry.Recorder{mem, telemetry.Tee(mem, func(telemetry.IterEvent) {})} {
		got := run(rec)
		same := reflect.DeepEqual(got, want) && math.Float64bits(got.F) == math.Float64bits(want.F)
		for i := range got.X {
			same = same && math.Float64bits(got.X[i]) == math.Float64bits(want.X[i])
		}
		if !same {
			t.Errorf("%T run returned %+v, the Nop run %+v", rec, got, want)
		}
	}
}
