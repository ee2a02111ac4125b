package optimize

import (
	"context"
	"math"
	"testing"

	"qaoaml/internal/telemetry"
)

// gradOptimizers are the two methods that consume analytic gradients.
func gradOptimizers() []Optimizer {
	return []Optimizer{&LBFGSB{}, &SLSQP{}}
}

// sphereGrad is the analytic gradient of sphere(center).
func sphereGrad(center []float64) GradFunc {
	return func(x, grad []float64) {
		for i := range x {
			grad[i] = 2 * (x[i] - center[i])
		}
	}
}

// Analytic-gradient runs must converge to the same optimum as the
// finite-difference runs, spend strictly fewer function evaluations,
// and report the gradient count in NGev.
func TestAnalyticGradientConverges(t *testing.T) {
	b := UniformBounds(4, -2, 2)
	center := []float64{0.7, -0.3, 1.2, 0.4}
	x0 := []float64{-1, 1, 0, -1}
	for _, opt := range gradOptimizers() {
		fd := Run(context.Background(), Problem{F: sphere(center), X0: x0, Bounds: b}, Options{Optimizer: opt})
		an := Run(context.Background(), Problem{F: sphere(center), Grad: sphereGrad(center), X0: x0, Bounds: b},
			Options{Optimizer: opt})
		if an.Status != Converged {
			t.Errorf("%s: analytic run did not converge: %+v", opt.Name(), an)
		}
		if math.Abs(an.F-fd.F) > 1e-6 {
			t.Errorf("%s: analytic F %v vs FD F %v", opt.Name(), an.F, fd.F)
		}
		if an.NGev == 0 {
			t.Errorf("%s: analytic run reports NGev = 0", opt.Name())
		}
		if fd.NGev != 0 {
			t.Errorf("%s: FD run reports NGev = %d, want 0", opt.Name(), fd.NGev)
		}
		if an.NFev >= fd.NFev {
			t.Errorf("%s: analytic NFev %d not below FD NFev %d", opt.Name(), an.NFev, fd.NFev)
		}
	}
}

// Without Grad the gradient-based optimizers take exactly the central-
// difference gradient of GradientWorkspace, counted as function calls: a
// run with Grad nil is bit-identical to one handed that gradient as Grad,
// and spends 2·dim more calls per gradient the latter counts in NGev.
func TestNilGradKeepsFDPathBitIdentical(t *testing.T) {
	b := UniformBounds(3, -2, 2)
	f := sphere([]float64{0.7, -0.3, 1.2})
	x0 := []float64{-1, 1, 0}
	for _, opt := range gradOptimizers() {
		ws := NewGradientWorkspace(3)
		probes := 0
		fd := func(x, grad []float64) {
			ws.Gradient(grad, func(x []float64) float64 { probes++; return f(x) }, x, b)
		}
		got := Run(context.Background(), Problem{F: f, X0: x0, Bounds: b}, Options{Optimizer: opt})
		want := Run(context.Background(), Problem{F: f, Grad: fd, X0: x0, Bounds: b}, Options{Optimizer: opt})
		if got.F != want.F || got.Iters != want.Iters || got.Message != want.Message || got.NGev != 0 {
			t.Errorf("%s: nil-Grad Run differs from the FD gradient as Grad: got %+v want %+v", opt.Name(), got, want)
		}
		if got.NFev != want.NFev+probes || probes != 2*3*want.NGev {
			t.Errorf("%s: NFev %d, want %d + %d probes over %d gradients", opt.Name(), got.NFev, want.NFev, probes, want.NGev)
		}
		for i := range want.X {
			if got.X[i] != want.X[i] {
				t.Errorf("%s: X[%d] differs", opt.Name(), i)
			}
		}
	}
}

// Cancelling mid-gradient must surface within one outer step with a
// consistent partial result: Status Cancelled, F equal to the objective
// at the returned X, and NFev/NGev equal to the calls actually made.
func TestAnalyticCancelMidGradient(t *testing.T) {
	b := UniformBounds(4, -2, 2)
	for _, opt := range gradOptimizers() {
		ctx, cancel := context.WithCancel(context.Background())
		fCalls, gCalls := 0, 0
		f := func(x []float64) float64 {
			fCalls++
			return rosenbrockND(x)
		}
		grad := func(x, g []float64) {
			gCalls++
			if gCalls == 3 {
				cancel() // takes effect at the next outer-iteration check
			}
			rosenbrockNDGrad(x, g)
		}
		r := Run(ctx, Problem{F: f, Grad: grad, X0: []float64{-1.2, 1, -1.2, 1}, Bounds: b},
			Options{Optimizer: opt})
		cancel()
		if r.Status != Cancelled {
			t.Errorf("%s: status = %v (%s), want Cancelled", opt.Name(), r.Status, r.Message)
		}
		if r.NGev != gCalls {
			t.Errorf("%s: NGev = %d, but Grad was called %d times", opt.Name(), r.NGev, gCalls)
		}
		if r.NFev != fCalls {
			t.Errorf("%s: NFev = %d, but F was called %d times", opt.Name(), r.NFev, fCalls)
		}
		// Cancellation lands within one outer step of the cancelling
		// gradient: at most one more line search, never another gradient.
		if r.NGev > 3 {
			t.Errorf("%s: %d gradient calls after cancelling at the 3rd", opt.Name(), r.NGev)
		}
		if got := rosenbrockND(r.X); got != r.F {
			t.Errorf("%s: incumbent inconsistent: F = %v but f(X) = %v", opt.Name(), r.F, got)
		}
	}
}

// Run must surface gradient-evaluation telemetry for analytic runs and
// stay silent about it on the FD path.
func TestRunRecordsGradientTelemetry(t *testing.T) {
	b := UniformBounds(3, -2, 2)
	center := []float64{0.7, -0.3, 1.2}
	for _, opt := range gradOptimizers() {
		mem := telemetry.NewMemory()
		r := Run(context.Background(), Problem{F: sphere(center), Grad: sphereGrad(center), X0: []float64{-1, 1, 0}, Bounds: b},
			Options{Optimizer: opt, Recorder: mem})
		if got := mem.CounterValue("optimize.gev_total"); got != int64(r.NGev) {
			t.Errorf("%s: optimize.gev_total = %d, want %d", opt.Name(), got, r.NGev)
		}
		if h, ok := mem.HistogramSnapshot("optimize.ngev"); !ok || h.Count != 1 {
			t.Errorf("%s: optimize.ngev histogram missing", opt.Name())
		}

		fdMem := telemetry.NewMemory()
		_ = Run(context.Background(), Problem{F: sphere(center), X0: []float64{-1, 1, 0}, Bounds: b},
			Options{Optimizer: opt, Recorder: fdMem})
		if got := fdMem.CounterValue("optimize.gev_total"); got != 0 {
			t.Errorf("%s: FD run recorded gev_total = %d", opt.Name(), got)
		}
	}
}

// rosenbrockNDGrad is the analytic gradient of rosenbrockND (chained
// 2-D Rosenbrock terms over consecutive coordinate pairs).
func rosenbrockNDGrad(x, grad []float64) {
	for i := range grad {
		grad[i] = 0
	}
	for i := 0; i+1 < len(x); i++ {
		a, b := x[i], x[i+1]
		grad[i] += -400*a*(b-a*a) - 2*(1-a)
		grad[i+1] += 200 * (b - a*a)
	}
}
