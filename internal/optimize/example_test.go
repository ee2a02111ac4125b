package optimize_test

import (
	"context"
	"fmt"

	"qaoaml/internal/optimize"
)

// Minimize a shifted quadratic under box bounds with L-BFGS-B.
func ExampleLBFGSB() {
	f := func(x []float64) float64 {
		return (x[0]-0.5)*(x[0]-0.5) + (x[1]+0.25)*(x[1]+0.25)
	}
	grad := func(x, g []float64) {
		g[0], g[1] = 2*(x[0]-0.5), 2*(x[1]+0.25)
	}
	bounds := optimize.NewBounds([]float64{-1, -1}, []float64{1, 1})
	res := optimize.Run(context.Background(), optimize.Problem{F: f, Grad: grad, X0: []float64{0.9, 0.9}, Bounds: bounds},
		optimize.Options{Optimizer: &optimize.LBFGSB{Tol: 1e-8}})
	fmt.Printf("x = (%.2f, %.2f), converged: %v\n", res.X[0], res.X[1], res.Status == optimize.Converged)
	// Output: x = (0.50, -0.25), converged: true
}
