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
	"fmt"
	"math"
	"math/rand"

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

	// The score scale is O(sum²), so useful γ are much smaller than the
	// MaxCut domain; give the optimizer a scaled box.
	const depth = 3
	lo := make([]float64, 2*depth)
	hi := make([]float64, 2*depth)
	for i := 0; i < depth; i++ {
		hi[i] = 0.2                // γ
		hi[depth+i] = qaoa.BetaMax // β
	}
	bounds := optimize.NewBounds(lo, hi)

	ev := qaoa.NewEvaluator(pb, depth)
	opt := &optimize.LBFGSB{Tol: 1e-6}
	rng := rand.New(rand.NewSource(2))
	ms := optimize.MultiStart(opt, ev.NegExpectation, bounds, 20, rng)
	params := qaoa.FromVector(ms.Best.X)

	fmt.Printf("QAOA depth %d, 20 starts, %d QC calls\n", depth, ms.TotalNFev)
	fmt.Printf("⟨Score⟩ = %.4f, normalized score %.4f\n",
		pb.Expectation(params), pb.ApproximationRatio(params))

	score, assign := ev.BestSampled(params)
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
