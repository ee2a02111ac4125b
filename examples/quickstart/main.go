// Quickstart: solve one MaxCut instance with QAOA.
//
// Builds a random 8-node graph, runs a depth-2 QAOA optimization with
// L-BFGS-B from a random initialization, and reads out the solution —
// the flow of the paper's Fig. 1(a).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"math/rand"

	"qaoaml/internal/core"
	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// The problem: MaxCut on an Erdős–Rényi G(8, 0.5) graph.
	g := graph.ErdosRenyiConnected(8, 0.5, rng)
	fmt.Printf("graph: %v\n", g)
	fmt.Printf("exact MaxCut (brute force): %d of %d edges\n\n", g.MaxCut().Value, g.NumEdges())

	pb, err := qaoa.NewProblem(g)
	if err != nil {
		panic(err)
	}

	// A depth-2 QAOA circuit has 4 parameters (γ1, γ2, β1, β2). The
	// evaluator counts every expectation evaluation as one quantum-
	// computer call.
	const depth = 2
	ev := qaoa.NewEvaluator(pb, depth)
	bounds := core.ParamBounds(depth)

	opt := &optimize.LBFGSB{Tol: 1e-6}
	result := optimize.Run(context.Background(), optimize.Problem{F: ev.NegExpectation, X0: bounds.Random(rng), Bounds: bounds},
		optimize.Options{Optimizer: opt})

	params := qaoa.FromVector(result.X)
	fmt.Printf("optimizer: %s (%s)\n", opt.Name(), result.Message)
	fmt.Printf("QC calls: %d\n", ev.NFev())
	fmt.Printf("optimal angles: γ=%.3f β=%.3f\n", params.Gamma, params.Beta)
	fmt.Printf("expected cut ⟨C⟩: %.4f\n", pb.Expectation(params))
	fmt.Printf("approximation ratio: %.4f\n", pb.ApproximationRatio(params))

	cut, assign := pb.BestSampled(params)
	fmt.Printf("most probable assignment: %08b → cut %g\n", assign, cut)
}
