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
