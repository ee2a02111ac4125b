package optimize

import "qaoaml/internal/linalg"

// LBFGSB is a limited-memory BFGS method with gradient projection for
// box constraints, the same algorithm family as SciPy's L-BFGS-B. It
// requires Problem.Grad: NFev counts objective calls and each gradient
// is one NGev, so SciPy's count without a jac is NFev + dim·NGev.
type LBFGSB struct {
	Tol float64 // relative f-change / projected-gradient tolerance (default 1e-6)
}

// lbfgsbMemory is the number of (s, y) pairs L-BFGS-B keeps.
const lbfgsbMemory = 10

// Name implements Optimizer.
func (o *LBFGSB) Name() string { return "L-BFGS-B" }

// run implements Optimizer on the gradient methods' loop.
func (o *LBFGSB) run(env *runEnv) Result { return projectedQuasiNewton(env, o.Tol, newLBFGSBModel) }

// lbfgsbModel is L-BFGS-B's model: the box and the last lbfgsbMemory
// curvature pairs (s, y) with their 1/sᵀy, oldest first from start, in
// buffers allocated once per run. A new pair is written into sNew and
// yNew and pushed by trading buffers with the slot it takes.
type lbfgsbModel struct {
	bounds     *Bounds
	s, y       [lbfgsbMemory]linalg.Vector
	rho        [lbfgsbMemory]float64
	start, len int
	sNew, yNew []float64
	q          linalg.Vector         // two-loop result
	alpha      [lbfgsbMemory]float64 // two-loop scratch
}

func newLBFGSBModel(n int, bounds *Bounds) quasiNewton {
	pts := points(2*lbfgsbMemory+3, n)
	h := &lbfgsbModel{bounds: bounds, sNew: pts[0], yNew: pts[1], q: pts[2]}
	for i := range h.s {
		h.s[i], h.y[i] = pts[3+2*i], pts[4+2*i]
	}
	return h
}

// direction returns the two-loop direction −H·g; when that is no feasible
// descent direction (stale curvature), it forgets every pair and takes
// the projected steepest descent, and if that is none, x is a KKT point.
func (h *lbfgsbModel) direction(x, g []float64) ([]float64, string) {
	d := h.twoLoop(g)
	for i := range d {
		d[i] = -d[i]
	}
	if h.feasible(d, x, g) >= 0 {
		h.start, h.len = 0, 0
		for i := range d {
			d[i] = -g[i]
		}
		if h.feasible(d, x, g) >= 0 {
			return nil, "no feasible descent direction (KKT point)"
		}
	}
	return d, ""
}

// feasible zeroes the components of d that push against an active bound
// and returns dᵀg.
func (h *lbfgsbModel) feasible(d, x, g []float64) float64 {
	descent := 0.0
	for i := range d {
		if (x[i] <= h.bounds.Lo[i] && d[i] < 0) || (x[i] >= h.bounds.Hi[i] && d[i] > 0) {
			d[i] = 0
		}
		descent += d[i] * g[i]
	}
	return descent
}

// at returns the slot of the i-th oldest pair.
func (h *lbfgsbModel) at(i int) int { return (h.start + i) % lbfgsbMemory }

// update pushes the step's pair (s, y) as the newest when sᵀy > 1e-10,
// dropping the oldest when the ring is full.
func (h *lbfgsbModel) update(x, xNew, g, gNew []float64) {
	s, y := h.sNew, h.yNew
	sy := 0.0
	for i := range x {
		s[i] = xNew[i] - x[i]
		y[i] = gNew[i] - g[i]
		sy += s[i] * y[i]
	}
	if sy > 1e-10 {
		k := h.at(h.len)
		if h.len < lbfgsbMemory {
			h.len++
		} else {
			h.start = h.at(1)
		}
		h.s[k], h.sNew = h.sNew, h.s[k]
		h.y[k], h.yNew = h.yNew, h.y[k]
		h.rho[k] = 1 / sy
	}
}

// twoLoop computes H·g with the standard L-BFGS two-loop recursion,
// scaling the initial Hessian by the last curvature pair. The result is
// the ring's own buffer, valid until the next call.
func (h *lbfgsbModel) twoLoop(g []float64) []float64 {
	q := h.q
	copy(q, g)
	k := h.len
	for i := k - 1; i >= 0; i-- {
		j := h.at(i)
		a := h.rho[j] * h.s[j].Dot(q)
		h.alpha[i] = a
		for l := range q {
			q[l] -= a * h.y[j][l]
		}
	}
	if k > 0 {
		last := h.at(k - 1)
		yy := h.y[last].Dot(h.y[last])
		if yy > 0 {
			scale := h.s[last].Dot(h.y[last]) / yy
			for l := range q {
				q[l] *= scale
			}
		}
	}
	for i := 0; i < k; i++ {
		j := h.at(i)
		b := h.rho[j] * h.y[j].Dot(q)
		for l := range q {
			q[l] += (h.alpha[i] - b) * h.s[j][l]
		}
	}
	return q
}

// search backtracks along clip(x + α·d) from α = 1 with an Armijo
// condition on the projected step.
func (h *lbfgsbModel) search(cnt *counter, x []float64, fx float64, g, d, xt []float64, maxFev int) (fNew, alpha float64, ok bool) {
	alpha = 1.0
	for try := 0; try < 30 && cnt.n < maxFev; try++ {
		for i := range xt {
			xt[i] = x[i] + alpha*d[i]
		}
		h.bounds.Clip(xt)
		// Armijo on the actual (projected) displacement.
		gTdx, moved := 0.0, false
		for i := range xt {
			dx := xt[i] - x[i]
			moved = moved || dx != 0
			gTdx += g[i] * dx
		}
		if !moved {
			return 0, 0, false
		}
		ft := cnt.call(xt)
		if ft <= fx+1e-4*gTdx || (gTdx >= 0 && ft < fx) {
			return ft, alpha, true
		}
		alpha /= 2
	}
	return 0, 0, false
}
