package core

import (
	"fmt"
	"math"
	"slices"

	"qaoaml/internal/ml"
	"qaoaml/internal/qaoa"
)

// Predictor maps the two-level features (γ1OPT(p=1), β1OPT(p=1), pt) to
// the 2·pt parameters of the target-depth instance. Because the output
// width varies with pt, the predictor keeps one multi-output regression
// bank per target depth, all sharing the same model family. Only a GPR
// predictor saves (Save); the other families train in memory.
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
// graph ids, for every target depth 2..cfg.MaxDepth.
func (p *Predictor) Train(data *Data, trainIDs []int) error {
	maxDepth := data.Config.MaxDepth
	if maxDepth < 2 {
		return fmt.Errorf("core: dataset max depth %d < 2 cannot train a predictor", maxDepth)
	}
	for depth := 2; depth <= maxDepth; depth++ {
		var x [][]float64
		var y [][]float64
		for _, g := range trainIDs {
			p1 := data.Record(g, 1).Params
			target := data.Record(g, depth).Params
			x = append(x, FeaturesFromParams(p1, depth).Vector())
			y = append(y, target.Vector())
		}
		bank := ml.NewMultiOutput(p.NewModel)
		if err := bank.Fit(x, y); err != nil {
			return fmt.Errorf("core: training depth-%d bank: %w", depth, err)
		}
		p.setBank(depth, bank)
	}
	return nil
}

// Predict returns the predicted target-depth parameters for the given
// features, clipped into the paper's domain (γ ∈ [0, 2π], β ∈ [0, π]).
// A bank output that is not finite is an error: a loaded bank can
// overflow to ±Inf or NaN, and clipping passes NaN through.
func (p *Predictor) Predict(f Features) (qaoa.Params, error) {
	bank, ok := p.banks[f.TargetDepth]
	if !ok {
		return qaoa.Params{}, fmt.Errorf("core: no bank trained for target depth %d", f.TargetDepth)
	}
	raw := bank.Predict(f.Vector())
	for j, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return qaoa.Params{}, fmt.Errorf("core: depth-%d bank output %d is %v", f.TargetDepth, j, v)
		}
	}
	return clipParams(qaoa.FromVector(raw)), nil
}

// clipParams projects parameters into the optimization domain.
func clipParams(pr qaoa.Params) qaoa.Params {
	for i := range pr.Gamma {
		pr.Gamma[i] = clamp(pr.Gamma[i], 0, qaoa.GammaMax)
		pr.Beta[i] = clamp(pr.Beta[i], 0, qaoa.BetaMax)
	}
	return pr
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
