package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"qaoaml/internal/core"
	"qaoaml/internal/optimize"
	"qaoaml/internal/stats"
)

// HierRow compares the three flows at one target depth: naive random
// initialization, the two-level flow, and the hierarchical variant the
// paper sketches in Sec. I(d) (intermediate-depth optimum joins the
// feature vector).
type HierRow struct {
	Depth int

	NaiveMeanFC, NaiveMeanAR float64
	TwoMeanFC, TwoMeanAR     float64
	HierMeanFC, HierMeanAR   float64

	TwoReductionPct  float64
	HierReductionPct float64
}

// HierResult is the hierarchical-vs-two-level ablation (DESIGN.md).
type HierResult struct {
	Optimizer string
	Rows      []HierRow
}

// RunHierarchical evaluates naive vs two-level vs hierarchical with
// L-BFGS-B for target depths 3..MaxTarget over the test graphs.
func RunHierarchical(env *Env) (HierResult, error) {
	if env.Scale.MaxDepth < 3 {
		return HierResult{}, fmt.Errorf("experiments: hierarchical needs MaxDepth >= 3")
	}
	hpred := core.NewHierPredictor(nil)
	if err := hpred.Train(env.Data, env.TrainIDs); err != nil {
		return HierResult{}, err
	}
	opt := &optimize.LBFGSB{Tol: 1e-6}
	res := HierResult{Optimizer: opt.Name()}

	flows := [3]core.Strategy{core.StrategyNaive, core.StrategyTwoLevel, core.StrategyHierarchical}
	type sample [len(flows)]struct{ fc, ar []float64 }
	for pt := 3; pt <= env.Scale.MaxTarget; pt++ {
		ids := env.testSubset()
		samples := make([]sample, len(ids))
		var wg sync.WaitGroup
		var firstErr error
		var errOnce sync.Once
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for k, g := range ids {
			wg.Add(1)
			sem <- struct{}{}
			go func(k, g int) {
				defer wg.Done()
				defer func() { <-sem }()
				pb := env.Data.Problems[g]
				rng := rand.New(rand.NewSource(env.Scale.Seed + int64(g)*33331 + int64(pt)))
				o := core.Options{Depth: pt, Optimizer: opt, Rng: rng, Predictor: env.Predictor, HierPredictor: hpred}
				var s sample
				for rep := 0; rep < env.Scale.Reps; rep++ {
					for i, strategy := range flows {
						o.Strategy = strategy
						r, err := core.Solve(context.Background(), pb, o)
						if err != nil {
							errOnce.Do(func() { firstErr = err })
							return
						}
						s[i].fc = append(s[i].fc, float64(r.NFev))
						s[i].ar = append(s[i].ar, r.AR)
					}
				}
				samples[k] = s
			}(k, g)
		}
		wg.Wait()
		if firstErr != nil {
			return HierResult{}, firstErr
		}
		var all sample
		for _, s := range samples {
			for i := range all {
				all[i].fc = append(all[i].fc, s[i].fc...)
				all[i].ar = append(all[i].ar, s[i].ar...)
			}
		}
		row := HierRow{
			Depth:       pt,
			NaiveMeanFC: stats.Mean(all[0].fc), NaiveMeanAR: stats.Mean(all[0].ar),
			TwoMeanFC: stats.Mean(all[1].fc), TwoMeanAR: stats.Mean(all[1].ar),
			HierMeanFC: stats.Mean(all[2].fc), HierMeanAR: stats.Mean(all[2].ar),
		}
		if row.NaiveMeanFC > 0 {
			row.TwoReductionPct = 100 * (1 - row.TwoMeanFC/row.NaiveMeanFC)
			row.HierReductionPct = 100 * (1 - row.HierMeanFC/row.NaiveMeanFC)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the three-way comparison.
func (h HierResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sec. I(d) tweak: hierarchical vs two-level vs naive (%s)\n", h.Optimizer)
	var rows [][]string
	for _, r := range h.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Depth),
			fmt.Sprintf("%.1f", r.NaiveMeanFC), fmt.Sprintf("%.4f", r.NaiveMeanAR),
			fmt.Sprintf("%.1f", r.TwoMeanFC), fmt.Sprintf("%.4f", r.TwoMeanAR),
			fmt.Sprintf("%.1f", r.HierMeanFC), fmt.Sprintf("%.4f", r.HierMeanAR),
			fmt.Sprintf("%.1f", r.TwoReductionPct), fmt.Sprintf("%.1f", r.HierReductionPct),
		})
	}
	b.WriteString(renderTable(
		[]string{"p", "naive FC", "AR", "2-level FC", "AR", "hier FC", "AR", "2-lvl red.%", "hier red.%"},
		rows))
	return b.String()
}
