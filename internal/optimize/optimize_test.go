package optimize

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sphere has its minimum 0 at the given center.
func sphere(center []float64) Func {
	return func(x []float64) float64 {
		s := 0.0
		for i := range x {
			d := x[i] - center[i]
			s += d * d
		}
		return s
	}
}

// rosenbrock is the classic banana function, minimum 0 at (1, 1).
func rosenbrock(x []float64) float64 {
	return 100*math.Pow(x[1]-x[0]*x[0], 2) + math.Pow(1-x[0], 2)
}

// qaoaLike mirrors the single-edge QAOA landscape: minimize the
// negative expectation −(1 + sin(x0)·sin(4·x1))/2 over the paper's
// domain; the optimum is −1 at (π/2, π/8) (among others).
func qaoaLike(x []float64) float64 {
	return -0.5 * (1 + math.Sin(x[0])*math.Sin(4*x[1]))
}

// minimize runs opt from x0 without an analytic gradient, the way the
// examples do.
func minimize(opt Optimizer, f Func, x0 []float64, b *Bounds) Result {
	return Run(context.Background(), Problem{F: f, X0: x0, Bounds: b}, Options{Optimizer: opt})
}

func allOptimizers() []Optimizer {
	return []Optimizer{
		&LBFGSB{},
		&NelderMead{},
		&SLSQP{},
		&COBYLA{},
	}
}

func TestOptimizersOnSphere(t *testing.T) {
	center := []float64{0.7, -0.3, 1.2}
	b := UniformBounds(3, -2, 2)
	for _, opt := range allOptimizers() {
		r := minimize(opt, sphere(center), []float64{-1, 1, 0}, b)
		if r.F > 1e-5 {
			t.Errorf("%s: F = %v at %v (msg: %s)", opt.Name(), r.F, r.X, r.Message)
		}
		for i := range center {
			if math.Abs(r.X[i]-center[i]) > 1e-2 {
				t.Errorf("%s: x[%d] = %v, want %v", opt.Name(), i, r.X[i], center[i])
			}
		}
		if r.NFev <= 0 {
			t.Errorf("%s: NFev = %d", opt.Name(), r.NFev)
		}
	}
}

func TestOptimizersRespectBounds(t *testing.T) {
	// Minimum of the sphere is outside the box: optimizers must stop at
	// the face x = 1 and stay feasible throughout the reported solution.
	center := []float64{3, 3}
	b := UniformBounds(2, -1, 1)
	for _, opt := range allOptimizers() {
		r := minimize(opt, sphere(center), []float64{0, 0}, b)
		if !b.Contains(r.X) {
			t.Errorf("%s: solution %v violates bounds", opt.Name(), r.X)
		}
		for i := range r.X {
			if math.Abs(r.X[i]-1) > 2e-2 {
				t.Errorf("%s: x[%d] = %v, want 1 (active bound)", opt.Name(), i, r.X[i])
			}
		}
	}
}

// The banana valley outlasts L-BFGS-B's 100·dim iteration cap from the
// classic start, so a run that hits the cap is warm-started from its
// answer (which also resets the curvature history), at most twice.
func TestGradientOptimizersOnRosenbrock(t *testing.T) {
	b := UniformBounds(2, -2, 2)
	for _, opt := range []Optimizer{&LBFGSB{}, &SLSQP{}} {
		r := minimize(opt, rosenbrock, []float64{-1.2, 1}, b)
		for restart := 0; restart < 2 && r.Status == MaxIter; restart++ {
			r = minimize(opt, rosenbrock, r.X, b)
		}
		if r.F > 1e-4 {
			t.Errorf("%s: rosenbrock F = %v at %v (msg: %s)", opt.Name(), r.F, r.X, r.Message)
		}
	}
}

func TestOptimizersOnQAOALandscape(t *testing.T) {
	b := NewBounds([]float64{0, 0}, []float64{2 * math.Pi, math.Pi})
	for _, opt := range allOptimizers() {
		// Start near (not at) the optimum so every method converges to
		// the global basin.
		r := minimize(opt, qaoaLike, []float64{1.2, 0.5}, b)
		if r.F > -0.99 {
			t.Errorf("%s: qaoa landscape F = %v at %v (msg: %s)", opt.Name(), r.F, r.X, r.Message)
		}
	}
}

func TestWarmStartCutsFunctionCalls(t *testing.T) {
	// The paper's core effect: starting near the optimum must cost fewer
	// function calls than starting far away, for every optimizer.
	b := NewBounds([]float64{0, 0}, []float64{2 * math.Pi, math.Pi})
	near := []float64{math.Pi/2 + 0.05, math.Pi/8 + 0.02}
	far := []float64{5.9, 2.9}
	for _, opt := range allOptimizers() {
		rNear := minimize(opt, qaoaLike, near, b)
		rFar := minimize(opt, qaoaLike, far, b)
		if rNear.F > -0.99 {
			t.Errorf("%s: near start failed to converge (F=%v)", opt.Name(), rNear.F)
			continue
		}
		if rFar.F <= -0.99 && rNear.NFev >= rFar.NFev {
			t.Errorf("%s: near start cost %d >= far start %d", opt.Name(), rNear.NFev, rFar.NFev)
		}
	}
}

func TestResultConvergedFlag(t *testing.T) {
	b := UniformBounds(2, -2, 2)
	for _, opt := range allOptimizers() {
		r := minimize(opt, sphere([]float64{0, 0}), []float64{1, 1}, b)
		if r.Status != Converged {
			t.Errorf("%s: easy problem did not converge: %s", opt.Name(), r.Message)
		}
		if r.Message == "" {
			t.Errorf("%s: empty message", opt.Name())
		}
	}
}

// COBYLA.MaxFev is the one evaluation budget a caller sets.
func TestMaxFevBudget(t *testing.T) {
	b := UniformBounds(4, -2, 2)
	for _, budget := range []int{10, 12, 40} {
		r := minimize(&COBYLA{MaxFev: budget}, rosenbrockND, b.Random(rand.New(rand.NewSource(1))), b)
		// A simplex rebuild may overshoot by one simplex (n+1 evals).
		if r.NFev > budget+4+1 || r.Status == Converged {
			t.Errorf("MaxFev %d: NFev = %d, status %v", budget, r.NFev, r.Status)
		}
	}
}

func rosenbrockND(x []float64) float64 {
	s := 0.0
	for i := 0; i+1 < len(x); i++ {
		s += 100*math.Pow(x[i+1]-x[i]*x[i], 2) + math.Pow(1-x[i], 2)
	}
	return s
}

func TestStartOutsideBoundsIsClipped(t *testing.T) {
	b := UniformBounds(2, 0, 1)
	for _, opt := range allOptimizers() {
		r := minimize(opt, sphere([]float64{0.5, 0.5}), []float64{7, -7}, b)
		if !b.Contains(r.X) {
			t.Errorf("%s: solution %v out of bounds", opt.Name(), r.X)
		}
		if r.F > 1e-4 {
			t.Errorf("%s: F = %v", opt.Name(), r.F)
		}
	}
}

func TestBoundsHelpers(t *testing.T) {
	b := NewBounds([]float64{0, -1}, []float64{1, 1})
	if b.Dim() != 2 {
		t.Fatalf("Dim = %d", b.Dim())
	}
	x := []float64{2, -3}
	b.Clip(x)
	if x[0] != 1 || x[1] != -1 {
		t.Errorf("Clip = %v", x)
	}
	if !b.Contains(x) || b.Contains([]float64{0.5, 2}) {
		t.Error("Contains wrong")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if !b.Contains(b.Random(rng)) {
			t.Fatal("Random sample out of bounds")
		}
	}
}

func TestBoundsValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewBounds([]float64{0}, []float64{1, 2}) },
		func() { NewBounds([]float64{2}, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestProjectedGradientNorm(t *testing.T) {
	b := UniformBounds(2, 0, 1)
	// At the lower face with outward gradient: projected component is 0.
	if got := projectedGradientNorm([]float64{0, 0.5}, []float64{5, 0}, b); got != 0 {
		t.Errorf("norm = %v, want 0", got)
	}
	// Inward gradient at the face still counts.
	if got := projectedGradientNorm([]float64{0, 0.5}, []float64{-5, 0}, b); got != 5 {
		t.Errorf("norm = %v, want 5", got)
	}
	if got := projectedGradientNorm([]float64{1, 0.5}, []float64{0, -2}, b); got != 2 {
		t.Errorf("interior norm = %v, want 2", got)
	}
}

// Property: every optimizer returns a feasible point with F equal to
// the objective evaluated there, never worse than the start.
func TestOptimizerInvariants(t *testing.T) {
	opts := allOptimizers()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := UniformBounds(3, -1, 2)
		x0 := b.Random(rng)
		center := b.Random(rng)
		obj := sphere(center)
		f0 := obj(x0)
		opt := opts[int(uint64(seed)%uint64(len(opts)))]
		r := minimize(opt, obj, x0, b)
		if !b.Contains(r.X) {
			return false
		}
		if math.Abs(obj(r.X)-r.F) > 1e-12 {
			return false
		}
		return r.F <= f0+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

func TestOptimizerNames(t *testing.T) {
	want := map[string]bool{"L-BFGS-B": true, "Nelder-Mead": true, "SLSQP": true, "COBYLA": true}
	for _, opt := range allOptimizers() {
		if !want[opt.Name()] {
			t.Errorf("unexpected name %q", opt.Name())
		}
	}
}
