package experiments

import (
	"context"
	"fmt"

	"qaoaml/internal/core"
	"qaoaml/internal/ml"
	"qaoaml/internal/qaoa"
)

// hierBanks is the hierarchical predictor: one GPR bank per target
// depth ≥ 3 over hierFeatures.
type hierBanks map[int]*ml.MultiOutput

// hierFeatures is the hierarchical predictor input (6 values): the
// depth-1 and depth-2 optima. The target depth selects the bank.
func hierFeatures(p1, p2 qaoa.Params) []float64 {
	v := make([]float64, 0, 6)
	v = append(v, p1.Gamma[0], p1.Beta[0])
	v = append(v, p2.Gamma...)
	return append(v, p2.Beta...)
}

// trainHier fits a bank for every target depth 3..MaxDepth of the
// dataset on the training graphs' recorded optima, all banks on the
// same features in one ml.FitBanks call.
func trainHier(data *core.Data, trainIDs []int) (hierBanks, error) {
	maxDepth := data.Config.MaxDepth
	if maxDepth < 3 {
		return nil, fmt.Errorf("experiments: dataset max depth %d < 3 cannot train a hierarchical predictor", maxDepth)
	}
	var x [][]float64
	for _, g := range trainIDs {
		x = append(x, hierFeatures(data.Record(g, 1).Params, data.Record(g, 2).Params))
	}
	ys := make([][][]float64, maxDepth-2) // ys[b]: depth b+3's targets
	for b := range ys {
		for _, g := range trainIDs {
			ys[b] = append(ys[b], data.Record(g, b+3).Params.Vector())
		}
	}
	fitted, b, err := ml.FitBanks(func() ml.Regressor { return &ml.GPR{} }, x, ys)
	if err != nil {
		return nil, fmt.Errorf("experiments: training hierarchical depth-%d bank: %w", b+3, err)
	}
	banks := hierBanks{}
	for b, bank := range fitted {
		banks[b+3] = bank
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
	raw := bank.Predict(hierFeatures(res.Stages[0].Params, res.Stages[1].Params))
	res.Predicted = qaoa.FromVector(core.ParamBounds(pt).Clip(raw))
	o.Strategy, o.Depth, o.Starts, o.Seeds = core.StrategyNaive, pt, 1, []qaoa.Params{res.Predicted}
	polish, err := core.Solve(context.Background(), pb, o)
	if err != nil {
		return res, err
	}
	res.Params, res.AR, res.NegF = polish.Params, polish.AR, polish.NegF
	res.NFev += polish.NFev
	res.Stages = append(res.Stages, polish.Stages...)
	return res, nil
}

// hierArm is solveHier on banks.
func hierArm(banks hierBanks) arm {
	return arm{"hier", func(pb *qaoa.Problem, o core.Options) (core.Result, error) { return solveHier(pb, o, banks) }}
}

// RunHierarchical compares naive, two-level and the hierarchical
// variant the paper sketches in Sec. I(d) (the intermediate-depth
// optimum joins the feature vector) with L-BFGS-B at target depths
// 3..MaxTarget. The naive and two-level arms draw what Table I's
// L-BFGS-B rows draw, so their statistics equal those rows.
func RunHierarchical(env *Env) (ArmTable, error) {
	banks, err := trainHier(env.Data, env.TrainIDs)
	if err != nil {
		return ArmTable{}, err
	}
	opt := Optimizers()[0]
	var cells []cell
	for pt := 3; pt <= env.Scale.MaxTarget; pt++ {
		cells = append(cells, cell{opt, pt})
	}
	runs, err := runArms(env, cells, []arm{naiveArm, twoLevelArm, hierArm(banks)})
	if err != nil {
		return ArmTable{}, err
	}
	return runs.table("Sec. I(d) tweak: hierarchical vs two-level vs naive"), nil
}
