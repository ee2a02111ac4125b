// Package optimize implements the classical local optimizers the paper
// drives its QAOA loop with: two gradient-based methods (L-BFGS-B and
// SLSQP) and two derivative-free methods (Nelder-Mead and COBYLA). All
// support box bounds, the only constraint kind the QAOA parameter domain
// needs. The gradient-based methods take analytic gradients when
// Problem.Grad is set — core passes the adjoint gradient, which costs no
// function calls and is counted in Result.NGev — and otherwise fall back
// to central finite differences, so every gradient spends 2·dim function
// calls, as on a real quantum computer.
//
// Run(ctx, Problem, Options) is the one way to run an optimizer: it
// honors cancellation and deadlines (checked once per outer iteration),
// emits per-iteration traces and per-run FC/latency observations
// through a telemetry.Recorder, and reports the termination cause in
// Result.Status. Every optimizer runs at fixed defaults; only its
// tolerance (and COBYLA's evaluation cap) is settable.
//
// The implementations follow the same algorithm families as the SciPy
// routines the paper uses; see DESIGN.md for the substitution notes.
package optimize

import (
	"fmt"
	"math"
	"math/rand"
)

// Func is an objective to minimize.
type Func func(x []float64) float64

// Bounds are box constraints lo[i] ≤ x[i] ≤ hi[i].
type Bounds struct {
	Lo, Hi []float64
}

// NewBounds builds box bounds and validates them.
func NewBounds(lo, hi []float64) *Bounds {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("optimize: bounds length mismatch %d != %d", len(lo), len(hi)))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("optimize: bounds[%d] inverted: [%v, %v]", i, lo[i], hi[i]))
		}
	}
	return &Bounds{Lo: lo, Hi: hi}
}

// UniformBounds returns n-dimensional bounds [lo, hi]^n.
func UniformBounds(n int, lo, hi float64) *Bounds {
	l := make([]float64, n)
	h := make([]float64, n)
	for i := range l {
		l[i], h[i] = lo, hi
	}
	return NewBounds(l, h)
}

// Dim returns the dimensionality.
func (b *Bounds) Dim() int { return len(b.Lo) }

// Clip projects x onto the box in place and returns x.
func (b *Bounds) Clip(x []float64) []float64 {
	for i := range x {
		if x[i] < b.Lo[i] {
			x[i] = b.Lo[i]
		} else if x[i] > b.Hi[i] {
			x[i] = b.Hi[i]
		}
	}
	return x
}

// Contains reports whether x lies inside the box (inclusive).
func (b *Bounds) Contains(x []float64) bool {
	for i := range x {
		if x[i] < b.Lo[i] || x[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Random samples a uniform point in the box.
func (b *Bounds) Random(rng *rand.Rand) []float64 {
	x := make([]float64, b.Dim())
	for i := range x {
		x[i] = b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
	}
	return x
}

// Status is the termination cause of a run, so callers no longer infer
// it from NIter/NFev heuristics.
type Status uint8

const (
	// MaxIter is the zero value: the iteration or evaluation budget ran
	// out (or the algorithm stalled) before the tolerance was met.
	MaxIter Status = iota
	// Converged means the configured tolerance was met.
	Converged
	// Cancelled means the run was stopped externally — context
	// cancellation or a deadline.
	Cancelled
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Converged:
		return "converged"
	case Cancelled:
		return "cancelled"
	default:
		return "maxiter"
	}
}

// Result reports the outcome of a minimization.
type Result struct {
	X       []float64 // best point found
	F       float64   // objective at X
	NFev    int       // function evaluations consumed
	NGev    int       // analytic gradient evaluations (0 on the FD path)
	Iters   int       // outer iterations
	Status  Status    // termination cause (Converged/MaxIter/Cancelled)
	Message string    // human-readable termination reason
}

// Optimizer is one of this package's four bounded local minimizers;
// Run is the way to run one. The interface is sealed.
type Optimizer interface {
	// Name identifies the algorithm, e.g. "L-BFGS-B".
	Name() string
	// run is the algorithm's loop behind Run.
	run(env *runEnv) Result
}

// ByName returns the paper's local optimizer of that name ("lbfgsb",
// "neldermead", "slsqp" or "cobyla") at functional tolerance tol, and
// false for any other name.
func ByName(name string, tol float64) (Optimizer, bool) {
	switch name {
	case "lbfgsb":
		return &LBFGSB{Tol: tol}, true
	case "neldermead":
		return &NelderMead{Tol: tol}, true
	case "slsqp":
		return &SLSQP{Tol: tol}, true
	case "cobyla":
		return &COBYLA{Tol: tol}, true
	}
	return nil, false
}

// counter wraps f and counts evaluations.
type counter struct {
	f Func
	n int
}

func (c *counter) call(x []float64) float64 {
	c.n++
	return c.f(x)
}

// prepareStart validates inputs shared by all optimizers and returns a
// clipped copy of x0.
func prepareStart(x0 []float64, bounds *Bounds) []float64 {
	if bounds == nil {
		panic("optimize: nil bounds (use UniformBounds with wide limits for unconstrained problems)")
	}
	if len(x0) != bounds.Dim() {
		panic(fmt.Sprintf("optimize: x0 dim %d != bounds dim %d", len(x0), bounds.Dim()))
	}
	x := append([]float64(nil), x0...)
	return bounds.Clip(x)
}

// defaultTol is the paper's functional tolerance (Sec. II-B, III-A).
const defaultTol = 1e-6

// tolOrDefault returns t if positive, else the paper's 1e-6.
func tolOrDefault(t float64) float64 {
	if t > 0 {
		return t
	}
	return defaultTol
}

// relChange returns |a−b| / max(1, |a|, |b|).
func relChange(a, b float64) float64 {
	den := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) / den
}
