package core

import (
	"fmt"
	"math"
	"slices"

	"qaoaml/internal/ml"
	"qaoaml/internal/qaoa"
)

// Predictor maps the two-level features (γ1OPT(p=1), β1OPT(p=1)) to
// the 2·pt parameters of the target-depth instance: the target depth pt
// selects one multi-output regression bank per depth, all sharing the
// same model family. Only a GPR predictor saves (Save); the other
// families train in memory.
type Predictor struct {
	// NewModel constructs the underlying single-output model family
	// (default: GPR, the paper's best performer).
	NewModel func() ml.Regressor

	banks  map[int]*ml.MultiOutput // target depth → trained bank
	depths []int                   // the keys of banks, ascending
}

// NewPredictor returns a Predictor using the given model factory
// (nil selects GPR).
func NewPredictor(factory func() ml.Regressor) *Predictor {
	if factory == nil {
		factory = func() ml.Regressor { return &ml.GPR{} }
	}
	return &Predictor{NewModel: factory, banks: make(map[int]*ml.MultiOutput)}
}

// TargetDepths lists the depths the predictor was trained for,
// ascending. The slice is the predictor's own (the serving layer reads
// it on every two-level request): callers must not modify it.
func (p *Predictor) TargetDepths() []int { return p.depths }

// setBank installs the trained bank of one target depth.
func (p *Predictor) setBank(depth int, bank *ml.MultiOutput) {
	if _, ok := p.banks[depth]; !ok {
		i, _ := slices.BinarySearch(p.depths, depth)
		p.depths = slices.Insert(p.depths, i, depth)
	}
	p.banks[depth] = bank
}

// Train fits the predictor from the dataset restricted to the training
// graph ids, for every target depth 2..cfg.MaxDepth. Every bank reads
// the same features, the training graphs' depth-1 optima (γ1, β1), so
// the banks fit together in one ml.FitBanks call: a GPR predictor walks
// its hyperparameter grid once for all of them.
func (p *Predictor) Train(data *Data, trainIDs []int) error {
	maxDepth := data.Config.MaxDepth
	if maxDepth < 2 {
		return fmt.Errorf("core: dataset max depth %d < 2 cannot train a predictor", maxDepth)
	}
	var x [][]float64
	for _, g := range trainIDs { // Vector omits pt: any target depth gives the row
		x = append(x, FeaturesFromParams(data.Record(g, 1).Params, 2).Vector())
	}
	ys := make([][][]float64, maxDepth-1) // ys[b]: depth b+2's targets
	for b := range ys {
		for _, g := range trainIDs {
			ys[b] = append(ys[b], data.Record(g, b+2).Params.Vector())
		}
	}
	banks, b, err := ml.FitBanks(p.NewModel, x, ys)
	if err != nil {
		return fmt.Errorf("core: training depth-%d bank: %w", b+2, err)
	}
	for b, bank := range banks {
		p.setBank(b+2, bank)
	}
	return nil
}

// Predict returns the predicted target-depth parameters for the given
// features, clipped into the paper's domain (γ ∈ [0, 2π], β ∈ [0, π]).
// A bank output that is not finite is an error: a loaded bank can
// overflow to ±Inf or NaN, and clipping passes NaN through. A bank
// saved when pt was still a feature takes (γ1, β1, pt).
func (p *Predictor) Predict(f Features) (qaoa.Params, error) {
	bank, ok := p.banks[f.TargetDepth]
	if !ok {
		return qaoa.Params{}, fmt.Errorf("core: no bank trained for target depth %d", f.TargetDepth)
	}
	raw := bank.Predict(append(f.Vector(), float64(f.TargetDepth))[:bank.Inputs()])
	for j, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return qaoa.Params{}, fmt.Errorf("core: depth-%d bank output %d is %v", f.TargetDepth, j, v)
		}
	}
	return qaoa.FromVector(ParamBounds(f.TargetDepth).Clip(raw)), nil
}
