// Two-level demo: the paper's full pipeline on one unseen graph.
//
// Generates a small optimal-parameter dataset, trains the GPR
// predictor, and then compares — on a fresh test graph — the naive
// random-initialization flow (Fig. 1(a)) against the two-level
// ML-initialized flow (Fig. 4), reporting QC calls and approximation
// ratios for each target depth.
//
//	go run ./examples/twolevel
package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/optimize"
)

func main() {
	start := time.Now()

	// One-time cost: dataset generation and predictor training
	// (Sec. III-A; reduced scale so the demo runs in seconds).
	cfg := core.DataGenConfig{
		NumGraphs: 40,
		Nodes:     8,
		EdgeProb:  0.5,
		MaxDepth:  4,
		Starts:    10,
		Tol:       1e-6,
		Seed:      7,
	}
	fmt.Printf("generating dataset (%d graphs, depths 1..%d, %d starts)...\n",
		cfg.NumGraphs, cfg.MaxDepth, cfg.Starts)
	data, err := core.GenerateCtx(context.Background(), cfg)
	if err != nil {
		panic(err)
	}
	train, test := data.SplitIndices(0.3, 1)
	pred := core.NewPredictor(nil) // GPR, the paper's best model
	if err := pred.Train(data, train); err != nil {
		panic(err)
	}
	fmt.Printf("trained GPR predictor on %d graphs in %v\n\n",
		len(train), time.Since(start).Round(time.Millisecond))

	// Evaluate on one unseen graph.
	pb := data.Problems[test[0]]
	fmt.Printf("test graph: %v\n\n", pb.Spec.Graph)
	opt := &optimize.LBFGSB{Tol: 1e-6}
	rng := rand.New(rand.NewSource(99))

	fmt.Println("pt  naive FC  naive AR  two-level FC  two-level AR  FC reduction")
	var last core.Result
	for pt := 2; pt <= cfg.MaxDepth; pt++ {
		o := core.Options{Depth: pt, Optimizer: opt, Rng: rng, Predictor: pred}
		naive, err := core.Solve(context.Background(), pb, o)
		if err != nil {
			panic(err)
		}
		o.Strategy = core.StrategyTwoLevel
		two, err := core.Solve(context.Background(), pb, o)
		if err != nil {
			panic(err)
		}
		last = two
		fmt.Printf("%2d  %8d  %8.4f  %12d  %12.4f  %11.1f%%\n",
			pt, naive.NFev, naive.AR, two.NFev, two.AR,
			100*(1-float64(two.NFev)/float64(naive.NFev)))
	}

	fmt.Printf("\n(two-level FC includes the depth-1 warm-up: last row = %d level-1 + %d level-2 calls)\n",
		last.Stages[0].NFev, last.Stages[1].NFev)
}
