package optimize

import (
	"context"
	"testing"

	"qaoaml/internal/telemetry"
)

// gradOptimizers are the two methods that require Problem.Grad.
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

// Gradient runs converge to the optimum, and each count holds the calls
// of one function: NFev the objective's, NGev the gradient's.
func TestAnalyticGradientConverges(t *testing.T) {
	b := uniformBounds(4, -2, 2)
	center := []float64{0.7, -0.3, 1.2, 0.4}
	for _, opt := range gradOptimizers() {
		fCalls, gCalls := 0, 0
		f, g := sphere(center), sphereGrad(center)
		r := Run(context.Background(), Problem{
			F:    func(x []float64) float64 { fCalls++; return f(x) },
			Grad: func(x, grad []float64) { gCalls++; g(x, grad) },
			X0:   []float64{-1, 1, 0, -1}, Bounds: b,
		}, Options{Optimizer: opt})
		if r.Status != Converged || r.F > 1e-10 {
			t.Errorf("%s: F = %v, status %v (%s)", opt.Name(), r.F, r.Status, r.Message)
		}
		if r.NFev != fCalls || r.NGev != gCalls || gCalls == 0 {
			t.Errorf("%s: NFev = %d, NGev = %d; F was called %d times, Grad %d", opt.Name(), r.NFev, r.NGev, fCalls, gCalls)
		}
	}
}

// L-BFGS-B and SLSQP require Problem.Grad and, like a nil Bounds, a nil
// Grad panics, naming the optimizer. Nelder-Mead and COBYLA take no
// gradient and run without one.
func TestGradientOptimizersNeedGrad(t *testing.T) {
	p := Problem{F: sphere([]float64{0.5, -0.5}), X0: []float64{1, 1}, Bounds: uniformBounds(2, -2, 2)}
	for _, opt := range gradOptimizers() {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := "optimize: " + opt.Name() + " needs Problem.Grad"; msg != want {
					t.Errorf("%s with nil Grad: panic %q, want %q", opt.Name(), msg, want)
				}
			}()
			Run(context.Background(), p, Options{Optimizer: opt})
		}()
	}
	for _, opt := range []Optimizer{&NelderMead{}, &COBYLA{}} {
		if r := Run(context.Background(), p, Options{Optimizer: opt}); r.Status != Converged || r.NGev != 0 {
			t.Errorf("%s with nil Grad: status %v (%s), NGev = %d", opt.Name(), r.Status, r.Message, r.NGev)
		}
	}
}

// Cancelling mid-gradient must surface within one outer step with a
// consistent partial result: Status Cancelled, F equal to the objective
// at the returned X, and NFev/NGev equal to the calls actually made.
func TestAnalyticCancelMidGradient(t *testing.T) {
	b := uniformBounds(4, -2, 2)
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

// Run must surface gradient-evaluation telemetry for the gradient
// methods and stay silent about it for the derivative-free ones.
func TestRunRecordsGradientTelemetry(t *testing.T) {
	b := uniformBounds(3, -2, 2)
	center := []float64{0.7, -0.3, 1.2}
	for _, opt := range gradOptimizers() {
		mem := telemetry.NewMemory()
		r := Run(context.Background(), Problem{F: sphere(center), Grad: sphereGrad(center), X0: []float64{-1, 1, 0}, Bounds: b},
			Options{Optimizer: opt, Recorder: mem})
		if got := mem.CounterValue("optimize.gev_total"); got != int64(r.NGev) {
			t.Errorf("%s: optimize.gev_total = %d, want %d", opt.Name(), got, r.NGev)
		}
		if h, ok := mem.Snapshot().Histograms["optimize.ngev"]; !ok || h.Count != 1 {
			t.Errorf("%s: optimize.ngev histogram missing", opt.Name())
		}

	}
	for _, opt := range []Optimizer{&NelderMead{}, &COBYLA{}} {
		mem := telemetry.NewMemory()
		_ = Run(context.Background(), Problem{F: sphere(center), Grad: sphereGrad(center), X0: []float64{-1, 1, 0}, Bounds: b},
			Options{Optimizer: opt, Recorder: mem})
		if got := mem.CounterValue("optimize.gev_total"); got != 0 {
			t.Errorf("%s: derivative-free run recorded gev_total = %d", opt.Name(), got)
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
