package optimize

import (
	"math"

	"qaoaml/internal/linalg"
)

// COBYLA is a derivative-free trust-region method that, like Powell's
// COBYLA (Constrained Optimization BY Linear Approximations), maintains
// a simplex of n+1 points, fits a linear model of the objective through
// them, and minimizes the model inside a shrinking trust region. Box
// bounds — the only constraints the QAOA domain needs — are handled as
// linear constraints solved in closed form (clipping the model step).
// The trust region starts at radius 0.5, and a run stops after 500·dim
// iterations at the latest.
type COBYLA struct {
	Tol    float64 // final trust-region radius ρ_end (default 1e-6)
	MaxFev int     // function evaluation cap (default 1000·dim)
}

// Name implements Optimizer.
func (o *COBYLA) Name() string { return "COBYLA" }

// run implements Optimizer. Per-iteration events report the simplex
// function-value spread (GNorm) and the trust-region radius ρ (Step).
// Like NelderMead's, the run allocates its points and its linear-model
// scratch once; a rebuild re-fills the simplex's own buffers.
func (o *COBYLA) run(env *runEnv) Result {
	bounds := env.bounds
	x := prepareStart(env.x0, bounds)
	n := len(x)
	rhoEnd := tolOrDefault(o.Tol)
	rho := 0.5
	if rho < rhoEnd {
		rho = rhoEnd * 10
	}
	maxIter, maxFev := 500*n, o.MaxFev
	if maxFev <= 0 {
		maxFev = 1000 * n
	}
	cnt := &counter{f: env.f}

	rhoBeg := rho
	pts := points(n+1, n)
	simplex := make([]vertex, n+1)
	simplex[0].x = x
	for i := 1; i <= n; i++ {
		simplex[i].x = pts[i-1]
	}
	trial := pts[n]
	lm := newLinearModel(n)
	simplex[0].f = cnt.call(x)
	buildSimplex(cnt, simplex, rho, bounds)
	rebuilt := true // the simplex is not in sortSimplex order
	iters := 0
	converged := false
	shrinks := 0
	consecFails := 0
	// Functional-tolerance stall detection: the paper runs every
	// optimizer with a functional tolerance (1e-6), so COBYLA stops once
	// the incumbent stops improving by more than that for a window of
	// iterations — the trust-region ladder keeps shrinking ρ by 4× per
	// consecutive failure inside the window, so a stalled window means
	// no scale between ρ and ρ/4^window makes progress.
	stallWindow := 4*n + 6
	stall := 0
	lastBest := simplex[0].f
	cancelled := false
	msg := "max iterations reached"
	resort := func() {
		if rebuilt {
			sortSimplex(simplex)
		} else {
			sortLast(simplex)
		}
		rebuilt = false
	}
	for ; iters < maxIter && cnt.n < maxFev; iters++ {
		resort()
		if env.stop(&msg) {
			cancelled = true
			break
		}
		env.emit(iters, simplex[0].f, spread(simplex), rho, cnt.n)
		if rho <= rhoEnd {
			converged = true
			msg = "trust region collapsed to tolerance"
			break
		}
		if best := simplex[0].f; best < lastBest-rhoEnd*math.Max(1, math.Abs(best)) {
			lastBest = best
			stall = 0
		} else {
			stall++
			if stall >= stallWindow {
				converged = true
				msg = "function change below tolerance"
				break
			}
		}
		grad, ok := lm.fit(simplex)
		if !ok {
			// Degenerate geometry: rebuild the simplex around the best point.
			buildSimplex(cnt, simplex, rho, bounds)
			rebuilt = true
			continue
		}
		best := simplex[0]
		// Model minimizer inside the trust region and the box: step along
		// −grad with length ρ, clipped to bounds.
		gnorm := 0.0
		for _, gi := range grad {
			gnorm += gi * gi
		}
		gnorm = math.Sqrt(gnorm)
		if gnorm < 1e-14 {
			rho /= 2
			continue
		}
		for i := range trial {
			trial[i] = best.x[i] - rho*grad[i]/gnorm
		}
		bounds.Clip(trial)
		moved := false
		for i := range trial {
			if trial[i] != best.x[i] {
				moved = true
				break
			}
		}
		if !moved {
			rho /= 2
			continue
		}
		ft := cnt.call(trial)
		// Trust-region ratio test: the linear model predicts a decrease
		// of ρ·‖g‖ (less when clipped); demand a fixed fraction of it.
		predicted := 0.0
		for i := range trial {
			predicted -= grad[i] * (trial[i] - best.x[i])
		}
		switch {
		case ft < best.f && best.f-ft >= 0.1*predicted:
			// Good step: the trial becomes a vertex, displacing the worst.
			trial = replaceWorst(simplex, trial, ft)
			consecFails = 0
			// Very good step: grow the trust region (standard TR update)
			// so a prematurely shrunk region recovers instead of creeping.
			// The stall check above breaks any grow/shrink limit cycle.
			if best.f-ft >= 0.7*predicted {
				rho = math.Min(2*rho, rhoBeg)
			}
		default:
			// Model failed to predict enough descent: shrink the trust
			// region — aggressively on consecutive failures, which is the
			// signature of sitting near an optimum, so warm starts finish
			// in few evaluations. Still absorb the trial if it improves
			// the worst vertex (free geometry refresh), and rebuild the
			// simplex only every few shrinks (each rebuild costs n
			// evaluations).
			if ft < simplex[n].f {
				trial = replaceWorst(simplex, trial, ft)
			}
			consecFails++
			if consecFails > 1 {
				rho /= 4
			} else {
				rho /= 2
			}
			shrinks++
			if shrinks%5 == 0 && rho > rhoEnd && cnt.n+n < maxFev {
				buildSimplex(cnt, simplex, rho, bounds) // around best, still simplex[0]
				rebuilt = true
			}
		}
	}
	resort()
	if !converged && !cancelled && cnt.n >= maxFev {
		msg = "function evaluation budget exhausted"
	}
	return Result{
		X: simplex[0].x, F: simplex[0].f,
		NFev: cnt.n, Iters: iters,
		Status: statusOf(converged, cancelled), Message: msg,
	}
}

// buildSimplex keeps the base vertex s[0], whose f is already known, and
// resets every other vertex to the base plus an axis step of size rho
// (flipped at box faces), evaluating each: a fresh, well-conditioned
// simplex in the vertices' own buffers.
func buildSimplex(cnt *counter, s []vertex, rho float64, bounds *Bounds) {
	x := s[0].x
	for i := range x {
		xi := s[i+1].x
		copy(xi, x)
		step := rho
		if xi[i]+step > bounds.Hi[i] {
			step = -rho
		}
		xi[i] += step
		if xi[i] < bounds.Lo[i] {
			xi[i] = bounds.Lo[i]
		}
		s[i+1].f = cnt.call(xi)
	}
}

// linearModel is the scratch of COBYLA's model fit: the edge system, its
// right-hand side, its LU factors and the gradient it solves for.
type linearModel struct {
	a   *linalg.Matrix
	rhs linalg.Vector
	lu  linalg.LUDecomp
	g   linalg.Vector
}

func newLinearModel(n int) *linearModel {
	return &linearModel{a: linalg.NewMatrix(n, n), rhs: make(linalg.Vector, n), g: make(linalg.Vector, n)}
}

// fit solves for the gradient of the affine interpolant through the
// simplex vertices from the edge system. The gradient is the model's own
// buffer, valid until the next fit.
func (m *linearModel) fit(simplex []vertex) ([]float64, bool) {
	n := len(simplex) - 1
	for i := 1; i <= n; i++ {
		for j := 0; j < n; j++ {
			m.a.Set(i-1, j, simplex[i].x[j]-simplex[0].x[j])
		}
		m.rhs[i-1] = simplex[i].f - simplex[0].f
	}
	if m.lu.Factor(m.a) != nil {
		return nil, false
	}
	g := m.lu.SolveTo(m.g, m.rhs)
	for _, gi := range g {
		if math.IsNaN(gi) || math.IsInf(gi, 0) {
			return nil, false
		}
	}
	return g, true
}
