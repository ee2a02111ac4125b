package optimize

import "math"

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
