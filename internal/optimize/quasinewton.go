package optimize

import "math"

// quasiNewton is what each gradient method brings to the loop they share
// (projectedQuasiNewton) for one run; the line search is shared.
type quasiNewton interface {
	// direction returns a feasible descent direction at x, or why x is a
	// KKT point.
	direction(x, g []float64) (d []float64, kkt string)
	// update takes the step from (x, g) to (xNew, gNew) into the model.
	update(x, xNew, g, gNew []float64)
}

// projectedQuasiNewton is the loop of L-BFGS-B and SLSQP. From the
// clipped start, each iteration checks the context, emits the
// projected-gradient ∞-norm and the previous accepted step, and
// converges when that norm is within tol. Otherwise the model chooses a
// direction, lineSearch a step, the gradient is taken at the accepted
// point, the model is updated, and the run converges when f changed by
// at most tol relative to max(1, |f|). It stops after 100·dim iterations
// or 2000·dim function calls at the latest.
func projectedQuasiNewton(env *runEnv, tol float64, newModel func(n int, bounds *Bounds) quasiNewton) Result {
	bounds := env.bounds
	x := prepareStart(env.x0, bounds)
	n := len(x)
	tol = tolOrDefault(tol)
	maxIter, maxFev := 100*n, 2000*n
	cnt := &counter{f: env.f}
	ngev := 0
	grad := env.gradient(&ngev)

	fx := cnt.call(x)
	pts := points(3, n)
	g, gNew, xt := pts[0], pts[1], pts[2] // xt: the line search's point
	grad(g, x)
	m := newModel(n, bounds)

	iters, alpha := 0, 0.0 // alpha: the previous iteration's accepted step
	status, msg := MaxIter, "max iterations reached"
	for ; iters < maxIter && cnt.n < maxFev; iters++ {
		if env.stop(&msg) {
			status = Cancelled
			break
		}
		pg := projectedGradientNorm(x, g, bounds)
		env.emit(iters, fx, pg, alpha, cnt.n)
		if pg <= tol {
			status, msg = Converged, "projected gradient below tolerance"
			break
		}
		d, kkt := m.direction(x, g)
		if kkt != "" {
			status, msg = Converged, kkt
			break
		}
		fNew, a, ok := lineSearch(cnt, bounds, x, fx, g, d, xt, maxFev)
		if !ok {
			msg = "line search failed to make progress"
			break
		}
		alpha = a
		grad(gNew, xt)
		m.update(x, xt, g, gNew)
		rel := relChange(fx, fNew)
		x, xt, g, gNew, fx = xt, x, gNew, g, fNew
		if rel <= tol {
			status, msg = Converged, "function change below tolerance"
			iters++
			break
		}
	}
	if status == MaxIter && cnt.n >= maxFev {
		msg = "function evaluation budget exhausted"
	}
	return Result{X: x, F: fx, NFev: cnt.n, NGev: ngev, Iters: iters, Status: status, Message: msg}
}

// The line search's Armijo fraction, trial cap and shrink-factor clamp.
const (
	armijoC, lineSearchTries = 1e-4, 30
	shrinkMin, shrinkMax     = 0.1, 0.5
)

// lineSearch backtracks along clip(x + α·d) from α = 1, for at most
// lineSearchTries trials while cnt.n < maxFev, with an Armijo test on the
// projected displacement Δx; on success xt holds the accepted point, fNew
// its value and alpha the step. It fails when the clipped step no longer
// moves x. A failed trial multiplies α by shrinkFactor.
func lineSearch(cnt *counter, bounds *Bounds, x []float64, fx float64, g, d, xt []float64, maxFev int) (fNew, alpha float64, ok bool) {
	alpha = 1.0
	for try := 0; try < lineSearchTries && cnt.n < maxFev; try++ {
		for i := range xt {
			xt[i] = x[i] + alpha*d[i]
		}
		bounds.Clip(xt)
		slope, moved := 0.0, false // slope: gᵀΔx
		for i := range xt {
			dx := xt[i] - x[i]
			moved = moved || dx != 0
			slope += g[i] * dx
		}
		if !moved {
			return 0, 0, false
		}
		ft := cnt.call(xt)
		if ft <= fx+armijoC*slope || (slope >= 0 && ft < fx) {
			return ft, alpha, true
		}
		alpha *= shrinkFactor(fx, slope, ft)
	}
	return 0, 0, false
}

// shrinkFactor is the minimizer t of the quadratic q with q(0) = fx,
// q'(0) = slope and q(1) = ft, clamped to [shrinkMin, shrinkMax]; it is
// shrinkMax, a halving, when slope is no descent or q's curvature is not
// positive and finite (ft NaN or +Inf).
func shrinkFactor(fx, slope, ft float64) float64 {
	if curv := ft - fx - slope; slope < 0 && curv > 0 && curv <= math.MaxFloat64 {
		return min(max(-slope/(2*curv), shrinkMin), shrinkMax)
	}
	return shrinkMax
}

// projectedGradientNorm returns the infinity norm of the projected
// gradient: at an active lower bound only ascent directions count, and
// vice versa. Zero means first-order optimal for the box problem.
func projectedGradientNorm(x, g []float64, bounds *Bounds) float64 {
	norm := 0.0
	for i := range x {
		gi := g[i]
		if (x[i] <= bounds.Lo[i] && gi > 0) || (x[i] >= bounds.Hi[i] && gi < 0) {
			gi = 0
		}
		if a := math.Abs(gi); a > norm {
			norm = a
		}
	}
	return norm
}
