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
// requires Problem.Grad: NFev counts objective calls and each gradient
// is one NGev, so SciPy's count without a jac is NFev + dim·NGev.
type SLSQP struct {
	Tol float64 // relative f-change / projected-gradient tolerance (default 1e-6)
}

// slsqpQPSweeps is the number of coordinate-descent sweeps per QP solve.
const slsqpQPSweeps = 30

// Name implements Optimizer.
func (o *SLSQP) Name() string { return "SLSQP" }

// run implements Optimizer on the gradient methods' loop.
func (o *SLSQP) run(env *runEnv) Result { return projectedQuasiNewton(env, o.Tol, newSLSQPModel) }

// slsqpModel is SLSQP's model: the box, the damped-BFGS Hessian
// approximation B and the update's vectors (4·n).
type slsqpModel struct {
	bounds *Bounds
	b      *linalg.Matrix
	d      linalg.Vector // QP step
	work   []float64
}

func newSLSQPModel(n int, bounds *Bounds) quasiNewton {
	return &slsqpModel{bounds: bounds, b: linalg.Identity(n), d: make([]float64, n), work: make([]float64, 4*n)}
}

// direction returns the box QP's step, or a KKT message if it vanishes.
func (m *slsqpModel) direction(x, g []float64) ([]float64, string) {
	solveBoxQP(m.d, m.b, g, x, m.bounds, slsqpQPSweeps)
	if math.Sqrt(m.d.Dot(m.d)) <= 1e-14 {
		return nil, "QP step vanished (KKT point)"
	}
	return m.d, ""
}

// solveBoxQP minimizes gᵀd + ½dᵀBd subject to lo−x ≤ d ≤ hi−x by cyclic
// coordinate descent with clipping (convergent for SPD B), from d = 0,
// into d.
func solveBoxQP(d []float64, b *linalg.Matrix, g, x []float64, bounds *Bounds, sweeps int) {
	n := len(g)
	clear(d)
	for s := 0; s < sweeps; s++ {
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			row := b.Data[i*n : (i+1)*n]
			bii := row[i]
			if bii <= 0 {
				bii = 1
			}
			// Partial derivative of the QP objective wrt d_i at current d.
			deriv := g[i]
			for j, bij := range row {
				deriv += bij * d[j]
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
}

// update applies Powell's damped BFGS update to B in place, which keeps
// it positive definite even when sᵀy ≤ 0.
func (m *slsqpModel) update(x, xNew, g, gNew []float64) {
	n, b, work := len(x), m.b, m.work
	s, y := linalg.Vector(work[:n]), linalg.Vector(work[n:2*n])
	bs, r := linalg.Vector(work[2*n:3*n]), linalg.Vector(work[3*n:4*n])
	for i := range s {
		s[i] = xNew[i] - x[i]
		y[i] = gNew[i] - g[i]
	}
	b.MulVecTo(bs, s)
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
			b.Set(i, j, b.At(i, j)-bs[i]*bs[j]/sBs+r[i]*r[j]/sr)
		}
	}
}
