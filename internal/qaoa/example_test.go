package qaoa_test

import (
	"fmt"
	"math"

	"qaoaml/internal/graph"
	"qaoaml/internal/qaoa"
)

// Solve MaxCut on a single edge with a depth-1 circuit at the known
// optimal angles.
func ExampleProblem_expectation() {
	g := graph.New(2)
	_ = g.AddEdge(0, 1)
	pb, _ := qaoa.NewProblem(g)
	pr := qaoa.Params{Gamma: []float64{math.Pi / 2}, Beta: []float64{math.Pi / 8}}
	fmt.Printf("<C> = %.2f, AR = %.2f\n", pb.Expectation(pr), qaoa.NewEvaluator(pb, 1).ApproximationRatio(pr))
	// Output: <C> = 1.00, AR = 1.00
}

// Flat parameter vectors round-trip through the [γ..., β...] layout
// used by the optimizers.
func ExampleFromVector() {
	pr := qaoa.FromVector([]float64{0.1, 0.2, 0.3, 0.4})
	fmt.Println(pr.Depth(), pr.Gamma, pr.Beta)
	// Output: 2 [0.1 0.2] [0.3 0.4]
}

// INTERP extends a depth-2 schedule to depth 3 by linear interpolation.
func ExampleInterpolate() {
	pr := qaoa.Params{Gamma: []float64{0.4, 0.8}, Beta: []float64{0.5, 0.2}}
	next := qaoa.Interpolate(pr)
	fmt.Printf("%.2f %.2f\n", next.Gamma, next.Beta)
	// Output: [0.40 0.60 0.80] [0.50 0.35 0.20]
}

// Canonicalize folds symmetric copies of an optimum into one
// representative. Every vertex of an even cycle has even degree, so
// shifting γ by π is a symmetry on its own, as is shifting β by the π/2
// mixer period.
func ExampleProblem_Canonicalize() {
	g := graph.New(4)
	for v := 0; v < 4; v++ {
		_ = g.AddEdge(v, (v+1)%4)
	}
	pb, _ := qaoa.NewProblem(g)
	a := qaoa.Params{Gamma: []float64{0.4}, Beta: []float64{0.3}}
	b := qaoa.Params{Gamma: []float64{0.4 + math.Pi}, Beta: []float64{0.3 + math.Pi/2}}
	ca, cb := pb.Canonicalize(a), pb.Canonicalize(b)
	fmt.Printf("γ %.3f %.3f, β %.3f %.3f\n", ca.Gamma[0], cb.Gamma[0], ca.Beta[0], cb.Beta[0])
	fmt.Printf("<C> %.4f %.4f\n", pb.Expectation(a), pb.Expectation(b))
	// Output:
	// γ 0.400 0.400, β 0.300 0.300
	// <C> 2.6686 2.6686
}
