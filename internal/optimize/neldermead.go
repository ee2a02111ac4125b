package optimize

import (
	"math"
	"slices"
)

// NelderMead is the derivative-free simplex method with the standard
// coefficients (reflection 1, expansion 2, contraction ½, shrink ½).
// Box bounds are enforced by clipping every trial vertex, matching how
// bounded Nelder-Mead is typically driven for QAOA parameters. It
// converges when the simplex's function-value spread is within Tol and
// its diameter within 1e-6, and stops after 200·dim iterations or
// 400·dim function calls at the latest.
type NelderMead struct {
	Tol float64 // simplex function-value spread tolerance (default 1e-6)
}

// Name implements Optimizer.
func (nm *NelderMead) Name() string { return "Nelder-Mead" }

type vertex struct {
	x []float64
	f float64
}

// run implements Optimizer. Per-iteration events report the simplex
// function-value spread (GNorm) and diameter (Step).
func (nm *NelderMead) run(env *runEnv) Result {
	bounds := env.bounds
	x := prepareStart(env.x0, bounds)
	n := len(x)
	tol := tolOrDefault(nm.Tol)
	const xtol = 1e-6
	maxIter, maxFev := 200*n, 400*n
	cnt := &counter{f: env.f}

	// Reflection, expansion, contraction, shrink coefficients.
	const alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5

	// Initial simplex: x plus a scaled step along each axis (SciPy-style
	// 5% nonzero perturbation), clipped into the box and nudged off the
	// start if clipping collapsed the step.
	simplex := make([]vertex, n+1)
	simplex[0] = vertex{x: append([]float64(nil), x...), f: cnt.call(x)}
	for i := 0; i < n; i++ {
		xi := append([]float64(nil), x...)
		step := 0.05 * (1 + math.Abs(x[i]))
		w := bounds.Hi[i] - bounds.Lo[i]
		if w > 0 && step > 0.25*w {
			step = 0.25 * w
		}
		xi[i] += step
		if xi[i] > bounds.Hi[i] {
			xi[i] = x[i] - step
			if xi[i] < bounds.Lo[i] {
				xi[i] = bounds.Lo[i] + 0.5*w
			}
		}
		simplex[i+1] = vertex{x: xi, f: cnt.call(xi)}
	}

	sortSimplex(simplex)
	iters := 0
	converged := false
	cancelled := false
	msg := "max iterations reached"
	for ; iters < maxIter && cnt.n < maxFev; iters++ {
		if env.stop(&msg) {
			cancelled = true
			break
		}
		sp, dia := spread(simplex), diameter(simplex)
		env.emit(iters, simplex[0].f, sp, dia, cnt.n)
		if sp <= tol && dia <= xtol {
			converged = true
			msg = "simplex spread below tolerance"
			break
		}
		// Centroid of all but the worst vertex.
		cen := make([]float64, n)
		for _, v := range simplex[:n] {
			for j := range cen {
				cen[j] += v.x[j] / float64(n)
			}
		}
		worst := simplex[n]
		refl := affine(cen, worst.x, -alpha, bounds)
		fr := cnt.call(refl)
		switch {
		case fr < simplex[0].f:
			// Try expansion.
			exp := affine(cen, worst.x, -alpha*gamma, bounds)
			fe := cnt.call(exp)
			if fe < fr {
				simplex[n] = vertex{x: exp, f: fe}
			} else {
				simplex[n] = vertex{x: refl, f: fr}
			}
		case fr < simplex[n-1].f:
			simplex[n] = vertex{x: refl, f: fr}
		default:
			// Contraction (outside if reflection helped vs worst, else inside).
			var con []float64
			if fr < worst.f {
				con = affine(cen, worst.x, -alpha*rho, bounds)
			} else {
				con = affine(cen, worst.x, rho, bounds)
			}
			fc := cnt.call(con)
			if fc < math.Min(fr, worst.f) {
				simplex[n] = vertex{x: con, f: fc}
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= n; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = simplex[0].x[j] + sigma*(simplex[i].x[j]-simplex[0].x[j])
					}
					bounds.Clip(simplex[i].x)
					simplex[i].f = cnt.call(simplex[i].x)
					if cnt.n >= maxFev {
						break
					}
				}
			}
		}
		sortSimplex(simplex)
	}
	if !converged && !cancelled && cnt.n >= maxFev {
		msg = "function evaluation budget exhausted"
	}
	return Result{
		X: simplex[0].x, F: simplex[0].f,
		NFev: cnt.n, Iters: iters,
		Status: statusOf(converged, cancelled), Message: msg,
	}
}

// affine returns clip(cen + t·(xw − cen)).
func affine(cen, xw []float64, t float64, bounds *Bounds) []float64 {
	out := make([]float64, len(cen))
	for i := range out {
		out[i] = cen[i] + t*(xw[i]-cen[i])
	}
	return bounds.Clip(out)
}

// sortSimplex orders the vertices by f, stably. The compare is < both
// ways round, not cmp.Compare, which would sort NaN first: here a NaN
// ties with everything and keeps its place, which is the order NelderMead
// and COBYLA's recorded runs depend on.
func sortSimplex(s []vertex) {
	slices.SortStableFunc(s, func(a, b vertex) int {
		switch {
		case a.f < b.f:
			return -1
		case a.f > b.f:
			return 1
		}
		return 0
	})
}

// spread is the best-to-worst function-value gap of the simplex.
func spread(s []vertex) float64 { return math.Abs(s[len(s)-1].f - s[0].f) }

// diameter is the max coordinate distance of any vertex from the best.
func diameter(s []vertex) float64 {
	d := 0.0
	for _, v := range s[1:] {
		for j := range v.x {
			if a := math.Abs(v.x[j] - s[0].x[j]); a > d {
				d = a
			}
		}
	}
	return d
}
