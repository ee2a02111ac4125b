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
// function-value spread (GNorm) and diameter (Step). The run allocates
// its points once: n+1 vertices, the centroid and two trial points, an
// accepted trial trading buffers with the vertex it replaces.
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

	pts := points(n+3, n)
	cen, t1, t2 := pts[n], pts[n+1], pts[n+2]

	// Initial simplex: x plus a scaled step along each axis (SciPy-style
	// 5% nonzero perturbation), clipped into the box and nudged off the
	// start if clipping collapsed the step.
	simplex := make([]vertex, n+1)
	simplex[0] = vertex{x: x, f: cnt.call(x)}
	for i := 0; i < n; i++ {
		xi := pts[i]
		copy(xi, x)
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
		// The diameter is read by the convergence test only once the
		// spread is within tolerance, and otherwise only by a recorder.
		sp, dia := spread(simplex), 0.0
		if sp <= tol || !env.quiet {
			dia = diameter(simplex)
		}
		env.emit(iters, simplex[0].f, sp, dia, cnt.n)
		if sp <= tol && dia <= xtol {
			converged = true
			msg = "simplex spread below tolerance"
			break
		}
		// Centroid of all but the worst vertex.
		clear(cen)
		for _, v := range simplex[:n] {
			for j := range cen {
				cen[j] += v.x[j] / float64(n)
			}
		}
		worst := simplex[n]
		refl := affine(t1, cen, worst.x, -alpha, bounds)
		fr := cnt.call(refl)
		shrunk := false
		switch {
		case fr < simplex[0].f:
			// Try expansion.
			exp := affine(t2, cen, worst.x, -alpha*gamma, bounds)
			fe := cnt.call(exp)
			if fe < fr {
				t2 = replaceWorst(simplex, t2, fe)
			} else {
				t1 = replaceWorst(simplex, t1, fr)
			}
		case fr < simplex[n-1].f:
			t1 = replaceWorst(simplex, t1, fr)
		default:
			// Contraction (outside if reflection helped vs worst, else inside).
			var con []float64
			if fr < worst.f {
				con = affine(t2, cen, worst.x, -alpha*rho, bounds)
			} else {
				con = affine(t2, cen, worst.x, rho, bounds)
			}
			fc := cnt.call(con)
			if fc < math.Min(fr, worst.f) {
				t2 = replaceWorst(simplex, t2, fc)
			} else {
				// Shrink toward the best vertex.
				shrunk = true
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
		if shrunk {
			sortSimplex(simplex)
		} else {
			sortLast(simplex)
		}
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

// affine writes clip(cen + t·(xw − cen)) into dst and returns it.
func affine(dst, cen, xw []float64, t float64, bounds *Bounds) []float64 {
	for i := range dst {
		dst[i] = cen[i] + t*(xw[i]-cen[i])
	}
	return bounds.Clip(dst)
}

// replaceWorst makes (x, f) the simplex's last vertex and returns the
// buffer that vertex held, free for the next trial point.
func replaceWorst(s []vertex, x []float64, f float64) []float64 {
	w := &s[len(s)-1]
	old := w.x
	w.x, w.f = x, f
	return old
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

// sortLast is sortSimplex for a simplex whose vertices but the last are
// in the order sortSimplex (or sortLast) left them. Up to 20 vertices
// slices.SortStableFunc is an insertion sort, which finds such a prefix
// in order and moves only the last vertex, down past every vertex whose
// f it is below; sortLast does that one move. On more vertices
// SortStableFunc merges blocks, where a NaN can end up elsewhere, so
// sortLast runs sortSimplex.
func sortLast(s []vertex) {
	if len(s) > 20 {
		sortSimplex(s)
		return
	}
	j := len(s) - 1
	if j < 0 {
		return
	}
	v := s[j]
	for ; j > 0 && v.f < s[j-1].f; j-- {
		s[j] = s[j-1]
	}
	s[j] = v
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
