package optimize

import (
	"math/rand"
	"testing"

	"qaoaml/internal/linalg"
)

// solveBoxQP must satisfy the KKT conditions of the box-constrained QP:
// at the solution, the gradient component is zero for interior
// coordinates, nonnegative at the lower face, nonpositive at the upper
// face.
func TestSolveBoxQPKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		// Random SPD B = AᵀA + I.
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
		}
		bmat := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += a[k][i] * a[k][j]
				}
				if i == j {
					s++
				}
				bmat.Set(i, j, s)
			}
		}
		g := make([]float64, n)
		x := make([]float64, n)
		for i := range g {
			g[i] = rng.NormFloat64() * 3
			x[i] = rng.Float64()
		}
		bounds := UniformBounds(n, 0, 1)
		d := solveBoxQP(bmat, g, x, bounds, 200)
		// KKT check on ∇q(d) = g + B·d.
		for i := 0; i < n; i++ {
			grad := g[i]
			for j := 0; j < n; j++ {
				grad += bmat.At(i, j) * d[j]
			}
			lo, hi := bounds.Lo[i]-x[i], bounds.Hi[i]-x[i]
			switch {
			case d[i] <= lo+1e-9: // at lower face: gradient must push down
				if grad < -1e-6 {
					t.Fatalf("trial %d: KKT violated at lower face: grad=%v", trial, grad)
				}
			case d[i] >= hi-1e-9: // at upper face: gradient must push up
				if grad > 1e-6 {
					t.Fatalf("trial %d: KKT violated at upper face: grad=%v", trial, grad)
				}
			default: // interior: gradient must vanish
				if grad > 1e-6 || grad < -1e-6 {
					t.Fatalf("trial %d: KKT violated interior: grad=%v", trial, grad)
				}
			}
		}
	}
}
