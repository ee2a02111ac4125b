// Quickstart: solve one MaxCut instance with QAOA.
//
// Builds a random 8-node graph, solves it at depth 2 through core.Solve
// (L-BFGS-B from one random start), and reads out the solution — the
// flow of the paper's Fig. 1(a).
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
	maxCut, _ := g.WeightedMaxCut()
	fmt.Printf("exact MaxCut (brute force): %g of %d edges\n\n", maxCut, g.NumEdges())

	pb, err := qaoa.NewProblem(g)
	if err != nil {
		panic(err)
	}

	// A depth-2 QAOA circuit has 4 parameters (γ1, γ2, β1, β2). Solve
	// runs L-BFGS-B from one random start with the adjoint gradient and
	// counts every expectation evaluation as one quantum-computer call.
	const depth = 2
	opt := &optimize.LBFGSB{Tol: 1e-6}
	result, err := core.Solve(context.Background(), pb, core.Options{Depth: depth, Optimizer: opt, Rng: rng})
	if err != nil {
		panic(err)
	}

	params := result.Params
	fmt.Printf("optimizer: %s\n", opt.Name())
	fmt.Printf("QC calls: %d\n", result.NFev)
	fmt.Printf("optimal angles: γ=%.3f β=%.3f\n", params.Gamma, params.Beta)
	fmt.Printf("expected cut ⟨C⟩: %.4f\n", pb.Expectation(params))
	fmt.Printf("approximation ratio: %.4f\n", pb.ApproximationRatio(params))

	cut, assign := pb.BestSampled(params)
	fmt.Printf("most probable assignment: %08b → cut %g\n", assign, cut)
}
