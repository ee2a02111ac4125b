// Optimizer comparison: the paper's four classical local optimizers on
// one QAOA instance.
//
// Runs L-BFGS-B, Nelder-Mead, SLSQP and COBYLA from the same random
// initializations on a depth-3 MaxCut instance and reports QC calls,
// gradients and approximation ratios — the optimizer-agnosticism check
// behind the paper's Table I rows.
//
//	go run ./examples/optimizers
package main

import (
	"context"
	"fmt"
	"math/rand"

	"qaoaml/internal/core"
	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/stats"
)

func main() {
	rng := rand.New(rand.NewSource(3))
	g := graph.ErdosRenyiConnected(8, 0.5, rng)
	pb, err := qaoa.NewProblem(g)
	if err != nil {
		panic(err)
	}
	fmt.Printf("graph: %v\nexact MaxCut: %g\n\n", g, pb.OptValue)

	const depth = 3
	const trials = 8
	bounds := core.ParamBounds(depth)

	// Same start points for every optimizer, for a fair comparison.
	starts := make([][]float64, trials)
	for i := range starts {
		starts[i] = bounds.Random(rng)
	}

	optimizers := []optimize.Optimizer{
		&optimize.LBFGSB{Tol: 1e-6},
		&optimize.NelderMead{Tol: 1e-6},
		&optimize.SLSQP{Tol: 1e-6},
		&optimize.COBYLA{Tol: 1e-6},
	}

	fmt.Printf("depth-%d instance, %d shared random starts per optimizer\n\n", depth, trials)
	fmt.Println("optimizer    mean FC   sd FC  mean grads  mean AR  best AR")
	for _, opt := range optimizers {
		var fcs, grads, ars []float64
		for _, x0 := range starts {
			ev := qaoa.NewEvaluator(pb, depth)
			res := optimize.Run(context.Background(), optimize.Problem{F: ev.NegExpectation, Grad: ev.NegGrad, X0: x0, Bounds: bounds},
				optimize.Options{Optimizer: opt})
			params := qaoa.FromVector(res.X)
			fcs = append(fcs, float64(res.NFev))
			grads = append(grads, float64(res.NGev))
			ars = append(ars, ev.ApproximationRatio(params))
		}
		fmt.Printf("%-11s  %7.1f  %7.1f  %10.1f  %7.4f  %7.4f\n",
			opt.Name(), stats.Mean(fcs), stats.StdDev(fcs), stats.Mean(grads), stats.Mean(ars), stats.Max(ars))
	}

	fmt.Println("\nFC counts objective calls; the gradient-based methods (L-BFGS-B, SLSQP)")
	fmt.Println("also take adjoint gradients, which SciPy without a jac would pay for with")
	fmt.Println("dim calls each (FC + dim·grads). Nelder-Mead and COBYLA take none.")
}
