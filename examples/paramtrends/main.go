// Parameter trends: reproduce the paper's Fig. 2/3 observation on one
// graph.
//
// Optimizes a 3-regular 8-node MaxCut instance at depths 1..5 and
// prints the optimal stage angles, showing the two patterns the ML
// model exploits: within a depth, γi increases and βi decreases between
// stages; across depths, γ1 decreases and the schedule stretches.
//
//	go run ./examples/paramtrends
package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"qaoaml/internal/core"
	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
)

func main() {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomRegular(8, 3, rng)
	maxCut, _ := g.WeightedMaxCut()
	fmt.Printf("graph: 3-regular, 8 nodes, MaxCut = %g\n\n", maxCut)

	pb, err := qaoa.NewProblem(g)
	if err != nil {
		panic(err)
	}
	opt := &optimize.LBFGSB{Tol: 1e-6}

	fmt.Println(" p  AR      γ schedule                β schedule")
	var prev qaoa.Params
	for depth := 1; depth <= 5; depth++ {
		var seeds []qaoa.Params
		if depth > 1 {
			// Seed one start from the interpolated lower-depth optimum so
			// the optimizer stays in the regular (annealing-like) family.
			seeds = append(seeds, qaoa.Interpolate(prev))
		}
		rec, err := core.Solve(context.Background(), pb, core.Options{
			Strategy: core.StrategyMultiStart, Depth: depth, Optimizer: opt, Rng: rng, Starts: 10, Seeds: seeds,
		})
		if err != nil {
			panic(err)
		}
		prev = rec.Params
		fmt.Printf("%2d  %.4f  %-24s  %-24s\n",
			depth, rec.AR, fmtAngles(rec.Params.Gamma), fmtAngles(rec.Params.Beta))
	}

	fmt.Println("\nwithin a row: γ increases stage to stage, β decreases (paper Fig. 2);")
	fmt.Println("down a column: γ1 shrinks as depth grows (paper Fig. 3).")
}

func fmtAngles(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return strings.Join(parts, " ")
}
