package optimize

import "math"

// fdStep is the central-difference step, a good compromise for smooth
// trig objectives like the QAOA landscape.
const fdStep = 1e-6

// GradientWorkspace holds the probe point a finite-difference gradient
// needs, so optimizer inner loops (which compute a gradient every
// iteration) reuse one slice instead of reallocating. Not safe for
// concurrent use.
type GradientWorkspace struct {
	xp []float64
}

// NewGradientWorkspace returns a workspace for n-dimensional gradients.
func NewGradientWorkspace(n int) *GradientWorkspace {
	return &GradientWorkspace{xp: make([]float64, n)}
}

// Gradient fills dst with the central-difference estimate of ∇f(x) and
// returns it, evaluating the 2·len(x) probes serially through f. Steps
// shrink at the box faces so every probe stays inside bounds; a
// degenerate coordinate (lo == hi) gets derivative 0 and no probes.
func (ws *GradientWorkspace) Gradient(dst []float64, f Func, x []float64, bounds *Bounds) []float64 {
	xp := ws.xp[:len(x)]
	copy(xp, x)
	for i := range x {
		hp, hm := fdStep, fdStep
		if x[i]+hp > bounds.Hi[i] {
			hp = bounds.Hi[i] - x[i]
		}
		if x[i]-hm < bounds.Lo[i] {
			hm = x[i] - bounds.Lo[i]
		}
		if hp+hm == 0 {
			dst[i] = 0
			continue
		}
		xp[i] = x[i] + hp
		fp := f(xp)
		xp[i] = x[i] - hm
		fm := f(xp)
		xp[i] = x[i]
		dst[i] = (fp - fm) / (hp + hm)
	}
	return dst
}

// projectedGradientNorm returns the infinity norm of the projected
// gradient: at an active lower bound only ascent directions count, and
// vice versa. Zero means first-order optimal for the box problem.
func projectedGradientNorm(x, g []float64, bounds *Bounds) float64 {
	norm := 0.0
	for i := range x {
		gi := g[i]
		if x[i] <= bounds.Lo[i] && gi > 0 {
			gi = 0
		}
		if x[i] >= bounds.Hi[i] && gi < 0 {
			gi = 0
		}
		if a := math.Abs(gi); a > norm {
			norm = a
		}
	}
	return norm
}
