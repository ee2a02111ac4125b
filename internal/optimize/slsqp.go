package optimize

import (
	"math"

	"qaoaml/internal/linalg"
)

// SLSQP is a sequential quadratic programming method with a damped-BFGS
// Hessian approximation, the algorithm family of SciPy's SLSQP. The
// QAOA domain has only box constraints, so each QP subproblem
//
//	min  gᵀd + ½ dᵀBd   s.t.  lo − x ≤ d ≤ hi − x
//
// is solved by 30 sweeps of cyclic coordinate descent with clipping,
// which converges for the SPD B maintained by the damped update. It
// takes Problem.Grad when set; otherwise gradients are central finite
// differences, counted as function calls. It stops after 100·dim
// iterations or 2000·dim function calls at the latest.
type SLSQP struct {
	Tol float64 // relative f-change / projected-gradient tolerance (default 1e-6)
}

// slsqpQPSweeps is the number of coordinate-descent sweeps per QP solve.
const slsqpQPSweeps = 30

// Name implements Optimizer.
func (o *SLSQP) Name() string { return "SLSQP" }

// run implements Optimizer. Per-iteration events report the
// projected-gradient ∞-norm and the previous accepted line-search step.
func (o *SLSQP) run(env *runEnv) Result {
	bounds := env.bounds
	x := prepareStart(env.x0, bounds)
	n := len(x)
	tol := tolOrDefault(o.Tol)
	maxIter, maxFev := 100*n, 2000*n
	cnt := &counter{f: env.f}
	ngev := 0
	grad := env.gradient(cnt, &ngev)

	fx := cnt.call(x)
	g := make([]float64, n)
	gNew := make([]float64, n)
	grad(g, x)
	xls := make([]float64, n) // line-search candidate buffer
	b := linalg.Identity(n)

	iters := 0
	converged := false
	cancelled := false
	lastAlpha := 0.0
	msg := "max iterations reached"
	for ; iters < maxIter && cnt.n < maxFev; iters++ {
		if env.stop(&msg) {
			cancelled = true
			break
		}
		pg := projectedGradientNorm(x, g, bounds)
		env.emit(iters, fx, pg, lastAlpha, cnt.n)
		if pg <= tol {
			converged = true
			msg = "projected gradient below tolerance"
			break
		}
		d := solveBoxQP(b, g, x, bounds, slsqpQPSweeps)
		norm := 0.0
		for _, di := range d {
			norm += di * di
		}
		if math.Sqrt(norm) <= 1e-14 {
			converged = true
			msg = "QP step vanished (KKT point)"
			break
		}

		// Armijo backtracking along the feasible direction d, writing
		// candidates into the reusable xls buffer.
		gTd := dot(g, d)
		alpha := 1.0
		var fNew float64
		accepted := false
		for try := 0; try < 30 && cnt.n < maxFev; try++ {
			for i := range xls {
				xls[i] = x[i] + alpha*d[i]
			}
			bounds.Clip(xls) // guard roundoff; d is feasible by construction
			ft := cnt.call(xls)
			if ft <= fx+1e-4*alpha*gTd || (gTd >= 0 && ft < fx) {
				fNew, accepted = ft, true
				break
			}
			alpha /= 2
		}
		if !accepted {
			msg = "line search failed to make progress"
			break
		}
		lastAlpha = alpha

		grad(gNew, xls)
		updateDampedBFGS(b, x, xls, g, gNew)

		fPrev := fx
		x, xls = xls, x
		fx = fNew
		g, gNew = gNew, g
		if relChange(fPrev, fx) <= tol {
			converged = true
			msg = "function change below tolerance"
			iters++
			break
		}
	}
	if !converged && !cancelled && cnt.n >= maxFev {
		msg = "function evaluation budget exhausted"
	}
	return Result{X: x, F: fx, NFev: cnt.n, NGev: ngev, Iters: iters,
		Status: statusOf(converged, cancelled), Message: msg}
}

// solveBoxQP minimizes gᵀd + ½dᵀBd subject to lo−x ≤ d ≤ hi−x by cyclic
// coordinate descent with clipping (convergent for SPD B).
func solveBoxQP(b *linalg.Matrix, g, x []float64, bounds *Bounds, sweeps int) []float64 {
	n := len(g)
	d := make([]float64, n)
	for s := 0; s < sweeps; s++ {
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			bii := b.At(i, i)
			if bii <= 0 {
				bii = 1
			}
			// Partial derivative of the QP objective wrt d_i at current d.
			deriv := g[i]
			for j := 0; j < n; j++ {
				deriv += b.At(i, j) * d[j]
			}
			di := d[i] - deriv/bii
			lo, hi := bounds.Lo[i]-x[i], bounds.Hi[i]-x[i]
			if di < lo {
				di = lo
			} else if di > hi {
				di = hi
			}
			if delta := math.Abs(di - d[i]); delta > maxDelta {
				maxDelta = delta
			}
			d[i] = di
		}
		if maxDelta < 1e-14 {
			break
		}
	}
	return d
}

// updateDampedBFGS applies Powell's damped BFGS update to b in place,
// which keeps it positive definite even when sᵀy ≤ 0.
func updateDampedBFGS(b *linalg.Matrix, x, xNew, g, gNew []float64) {
	n := len(x)
	s := make(linalg.Vector, n)
	y := make(linalg.Vector, n)
	for i := range s {
		s[i] = xNew[i] - x[i]
		y[i] = gNew[i] - g[i]
	}
	bs := b.MulVec(s)
	sBs := s.Dot(bs)
	if sBs <= 0 {
		return // degenerate step; skip update
	}
	sy := s.Dot(y)
	theta := 1.0
	if sy < 0.2*sBs {
		theta = 0.8 * sBs / (sBs - sy)
	}
	// r = θ·y + (1−θ)·B·s guarantees sᵀr ≥ 0.2·sᵀBs > 0.
	r := make(linalg.Vector, n)
	for i := range r {
		r[i] = theta*y[i] + (1-theta)*bs[i]
	}
	sr := s.Dot(r)
	if sr <= 1e-12 {
		return
	}
	// B ← B − (B s sᵀ B)/(sᵀBs) + (r rᵀ)/(sᵀr)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := b.At(i, j) - bs[i]*bs[j]/sBs + r[i]*r[j]/sr
			b.Set(i, j, v)
		}
	}
}
