package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"qaoaml/internal/core"
	"qaoaml/internal/ml"
	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
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

// hierBanks is the hierarchical predictor: one GPR bank per target
// depth ≥ 3 over hierFeatures.
type hierBanks map[int]*ml.MultiOutput

// hierFeatures is the hierarchical predictor input (7 values): the
// depth-1 and depth-2 optima, then the target depth.
func hierFeatures(p1, p2 qaoa.Params, pt int) []float64 {
	v := make([]float64, 0, 7)
	v = append(v, p1.Gamma[0], p1.Beta[0])
	v = append(v, p2.Gamma...)
	v = append(v, p2.Beta...)
	return append(v, float64(pt))
}

// trainHier fits a bank for every target depth 3..MaxDepth of the
// dataset on the training graphs' recorded optima.
func trainHier(data *core.Data, trainIDs []int) (hierBanks, error) {
	maxDepth := data.Config.MaxDepth
	if maxDepth < 3 {
		return nil, fmt.Errorf("experiments: dataset max depth %d < 3 cannot train a hierarchical predictor", maxDepth)
	}
	banks := hierBanks{}
	for depth := 3; depth <= maxDepth; depth++ {
		var x, y [][]float64
		for _, g := range trainIDs {
			x = append(x, hierFeatures(data.Record(g, 1).Params, data.Record(g, 2).Params, depth))
			y = append(y, data.Record(g, depth).Params.Vector())
		}
		bank := ml.NewMultiOutput(func() ml.Regressor { return &ml.GPR{} })
		if err := bank.Fit(x, y); err != nil {
			return nil, fmt.Errorf("experiments: training hierarchical depth-%d bank: %w", depth, err)
		}
		banks[depth] = bank
	}
	return banks, nil
}

// solveHier runs the hierarchical flow to target depth o.Depth ≥ 3 on
// o.Rng: a two-level solve to depth 2, a prediction from its level-1 and
// level-2 optima, and one polish from that prediction at the target
// depth. The result holds the three stages and the hierarchical
// prediction, as two-level's holds its two.
func solveHier(pb *qaoa.Problem, o core.Options, banks hierBanks) (core.Result, error) {
	pt := o.Depth
	bank, ok := banks[pt]
	if !ok {
		return core.Result{}, fmt.Errorf("experiments: no hierarchical bank for target depth %d", pt)
	}
	o.Strategy, o.Depth = core.StrategyTwoLevel, 2
	res, err := core.Solve(context.Background(), pb, o)
	if err != nil {
		return res, err
	}
	raw := bank.Predict(hierFeatures(res.Stages[0].Params, res.Stages[1].Params, pt))
	res.Predicted = qaoa.FromVector(core.ParamBounds(pt).Clip(raw))
	o.Strategy, o.Depth, o.Starts, o.Seeds = core.StrategyMultiStart, pt, 1, []qaoa.Params{res.Predicted}
	polish, err := core.Solve(context.Background(), pb, o)
	if err != nil {
		return res, err
	}
	res.Params, res.AR, res.NegF = polish.Params, polish.AR, polish.NegF
	res.NFev += polish.NFev
	res.Stages = append(res.Stages, polish.Stages...)
	return res, nil
}

// RunHierarchical evaluates naive vs two-level vs hierarchical with
// L-BFGS-B for target depths 3..MaxTarget over the test graphs.
func RunHierarchical(env *Env) (HierResult, error) {
	banks, err := trainHier(env.Data, env.TrainIDs)
	if err != nil {
		return HierResult{}, err
	}
	opt := &optimize.LBFGSB{Tol: 1e-6}
	res := HierResult{Optimizer: opt.Name()}

	flows := [3]func(*qaoa.Problem, core.Options) (core.Result, error){
		func(pb *qaoa.Problem, o core.Options) (core.Result, error) {
			return core.Solve(context.Background(), pb, o)
		},
		func(pb *qaoa.Problem, o core.Options) (core.Result, error) {
			o.Strategy = core.StrategyTwoLevel
			return core.Solve(context.Background(), pb, o)
		},
		func(pb *qaoa.Problem, o core.Options) (core.Result, error) { return solveHier(pb, o, banks) },
	}
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
				o := core.Options{Depth: pt, Optimizer: opt, Rng: rng, Predictor: env.Predictor}
				var s sample
				for rep := 0; rep < env.Scale.Reps; rep++ {
					for i, flow := range flows {
						r, err := flow(pb, o)
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
