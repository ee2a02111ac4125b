// Number partitioning: QAOA beyond MaxCut through the same constructor.
//
// Splits a set of numbers into two halves with equal sums. Minimizing
// (Σᵢ aᵢ(−1)^{zᵢ})² compiles to an Ising Hamiltonian (problem.Partition:
// J_ij = 2·aᵢ·aⱼ, no field), so qaoa.New, the evaluator and the
// classical optimizers apply unchanged; the Score QAOA maximizes is
// minus the squared difference.
//
//	go run ./examples/partition
package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"qaoaml/internal/core"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

func main() {
	numbers := []float64{9, 7, 6, 5, 4, 3}
	fmt.Printf("numbers: %v (sum %v)\n", numbers, sum(numbers))

	pb, err := qaoa.New(problem.Partition(numbers))
	if err != nil {
		panic(err)
	}
	fmt.Printf("smallest achievable difference of sums: %g (0 = perfect partition)\n\n", math.Sqrt(-pb.OptValue))

	// Multistart the way the dataset generator does it: 20 random starts
	// over the paper's parameter box, adjoint gradients, best run kept.
	const depth, starts = 3, 20
	opt := &optimize.LBFGSB{Tol: 1e-6}
	rng := rand.New(rand.NewSource(2))
	rec, err := core.Solve(context.Background(), pb, core.Options{
		Depth: depth, Optimizer: opt, Rng: rng, Starts: starts,
	})
	if err != nil {
		panic(err)
	}
	params := rec.Params

	fmt.Printf("QAOA depth %d, %d starts, %d QC calls\n", depth, starts, rec.NFev)
	fmt.Printf("⟨Score⟩ = %.4f, normalized score %.4f\n", -rec.NegF, rec.AR)

	score, assign := qaoa.NewEvaluator(pb, depth).BestSampled(params)
	var left, right []float64
	for i, s := range numbers {
		if (assign>>uint(i))&1 == 0 {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}
	fmt.Printf("partition: %v (sum %g) | %v (sum %g), difference %g\n",
		left, sum(left), right, sum(right), math.Sqrt(-score))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
