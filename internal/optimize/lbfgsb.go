package optimize

// LBFGSB is a limited-memory BFGS method with gradient projection for
// box constraints, the same algorithm family as SciPy's L-BFGS-B. It
// requires Problem.Grad: NFev counts objective calls and each gradient
// is one NGev, so SciPy's count without a jac is NFev + dim·NGev. It
// keeps the last 10 curvature pairs and stops after 100·dim iterations
// or 2000·dim function calls at the latest.
type LBFGSB struct {
	Tol float64 // relative f-change / projected-gradient tolerance (default 1e-6)
}

// lbfgsbMemory is the number of (s, y) pairs L-BFGS-B keeps.
const lbfgsbMemory = 10

// Name implements Optimizer.
func (o *LBFGSB) Name() string { return "L-BFGS-B" }

// run implements Optimizer. Per-iteration events report the
// projected-gradient ∞-norm and the accepted line-search step of the
// previous iteration.
func (o *LBFGSB) run(env *runEnv) Result {
	bounds := env.bounds
	x := prepareStart(env.x0, bounds)
	n := len(x)
	tol := tolOrDefault(o.Tol)
	maxIter, maxFev := 100*n, 2000*n
	cnt := &counter{f: env.f}
	ngev := 0
	grad := env.gradient(&ngev)

	fx := cnt.call(x)
	g := make([]float64, n)
	gNew := make([]float64, n)
	grad(g, x)
	xt := make([]float64, n) // line-search / next-iterate buffer
	hist := newCurvatureRing(n)

	iters := 0
	converged := false
	cancelled := false
	alpha := 0.0 // accepted step of the previous iteration
	msg := "max iterations reached"
	for ; iters < maxIter && cnt.n < maxFev; iters++ {
		if env.stop(&msg) {
			cancelled = true
			break
		}
		pg := projectedGradientNorm(x, g, bounds)
		env.emit(iters, fx, pg, alpha, cnt.n)
		if pg <= tol {
			converged = true
			msg = "projected gradient below tolerance"
			break
		}
		d := hist.twoLoop(g)
		for i := range d {
			d[i] = -d[i]
		}
		// Make the direction feasible-descent: zero components pushing
		// against an active bound.
		descent := 0.0
		for i := range d {
			if (x[i] <= bounds.Lo[i] && d[i] < 0) || (x[i] >= bounds.Hi[i] && d[i] > 0) {
				d[i] = 0
			}
			descent += d[i] * g[i]
		}
		if descent >= 0 {
			// Not a descent direction (stale curvature): fall back to the
			// projected steepest descent direction.
			hist.reset()
			for i := range d {
				d[i] = -g[i]
				if (x[i] <= bounds.Lo[i] && d[i] < 0) || (x[i] >= bounds.Hi[i] && d[i] > 0) {
					d[i] = 0
				}
			}
			descent = 0
			for i := range d {
				descent += d[i] * g[i]
			}
			if descent >= 0 {
				converged = true
				msg = "no feasible descent direction (KKT point)"
				break
			}
		}

		// Projected backtracking (Armijo) line search along clip(x + α·d),
		// writing the accepted point into the xt buffer.
		fNew, a, ok := projectedLineSearch(cnt, x, fx, g, d, bounds, maxFev, xt)
		if !ok {
			msg = "line search failed to make progress"
			break
		}
		alpha = a

		grad(gNew, xt)
		// Curvature update.
		s, y := hist.sNew, hist.yNew
		sy := 0.0
		for i := range x {
			s[i] = xt[i] - x[i]
			y[i] = gNew[i] - g[i]
			sy += s[i] * y[i]
		}
		if sy > 1e-10 {
			hist.push(1 / sy)
		}

		fPrev := fx
		x, xt = xt, x
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

// curvatureRing is L-BFGS-B's memory: the last lbfgsbMemory curvature
// pairs (s, y) and their 1/sᵀy, oldest first from start, in buffers
// allocated once per run. A new pair is written into sNew and yNew and
// pushed by trading buffers with the slot it takes.
type curvatureRing struct {
	s, y       [lbfgsbMemory][]float64
	rho        [lbfgsbMemory]float64
	start, len int
	sNew, yNew []float64
	q          []float64             // two-loop result
	alpha      [lbfgsbMemory]float64 // two-loop scratch
}

func newCurvatureRing(n int) *curvatureRing {
	pts := points(2*lbfgsbMemory+3, n)
	h := &curvatureRing{sNew: pts[0], yNew: pts[1], q: pts[2]}
	for i := range h.s {
		h.s[i], h.y[i] = pts[3+2*i], pts[4+2*i]
	}
	return h
}

// at returns the slot of the i-th oldest pair.
func (h *curvatureRing) at(i int) int { return (h.start + i) % lbfgsbMemory }

// reset forgets every pair.
func (h *curvatureRing) reset() { h.start, h.len = 0, 0 }

// push appends (sNew, yNew, rho) as the newest pair, dropping the oldest
// when the ring is full.
func (h *curvatureRing) push(rho float64) {
	k := h.at(h.len)
	if h.len < lbfgsbMemory {
		h.len++
	} else {
		h.start = h.at(1)
	}
	h.s[k], h.sNew = h.sNew, h.s[k]
	h.y[k], h.yNew = h.yNew, h.y[k]
	h.rho[k] = rho
}

// twoLoop computes H·g with the standard L-BFGS two-loop recursion,
// scaling the initial Hessian by the last curvature pair. The result is
// the ring's own buffer, valid until the next call.
func (h *curvatureRing) twoLoop(g []float64) []float64 {
	q := h.q
	copy(q, g)
	k := h.len
	for i := k - 1; i >= 0; i-- {
		j := h.at(i)
		a := h.rho[j] * dot(h.s[j], q)
		h.alpha[i] = a
		for l := range q {
			q[l] -= a * h.y[j][l]
		}
	}
	if k > 0 {
		last := h.at(k - 1)
		yy := dot(h.y[last], h.y[last])
		if yy > 0 {
			scale := dot(h.s[last], h.y[last]) / yy
			for l := range q {
				q[l] *= scale
			}
		}
	}
	for i := 0; i < k; i++ {
		j := h.at(i)
		b := h.rho[j] * dot(h.y[j], q)
		for l := range q {
			q[l] += (h.alpha[i] - b) * h.s[j][l]
		}
	}
	return q
}

// projectedLineSearch backtracks along clip(x + α·d) with an Armijo
// condition on the projected step, writing each candidate into the
// caller-provided xt buffer. On success xt holds the accepted point and
// alpha the accepted step length.
func projectedLineSearch(cnt *counter, x []float64, fx float64, g, d []float64, bounds *Bounds, maxFev int, xt []float64) (fNew, alpha float64, ok bool) {
	const c1 = 1e-4
	alpha = 1.0
	for try := 0; try < 30 && cnt.n < maxFev; try++ {
		for i := range xt {
			xt[i] = x[i] + alpha*d[i]
		}
		bounds.Clip(xt)
		// Armijo on the actual (projected) displacement.
		gTdx := 0.0
		moved := false
		for i := range xt {
			dx := xt[i] - x[i]
			if dx != 0 {
				moved = true
			}
			gTdx += g[i] * dx
		}
		if !moved {
			return 0, 0, false
		}
		ft := cnt.call(xt)
		if ft <= fx+c1*gTdx || (gTdx >= 0 && ft < fx) {
			return ft, alpha, true
		}
		alpha /= 2
	}
	return 0, 0, false
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
