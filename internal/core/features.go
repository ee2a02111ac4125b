// Package core implements the paper's contribution: ML-accelerated QAOA
// parameter initialization. It generates the optimal-parameter dataset
// (Sec. III-A), extracts the three-feature representation
// (γ1OPT(p=1), β1OPT(p=1), target depth pt — Sec. II-D), trains the
// per-depth regression banks (Sec. III-C), and runs every optimization
// flow — naive, multistart, the two-level flow of Fig. 4 and the
// hierarchical variant sketched in Sec. I(d) — through one entry point,
// Solve.
package core

import (
	"fmt"

	"qaoaml/internal/qaoa"
)

// Features is the predictor input of the two-level approach: the
// optimal depth-1 angles and the target depth (Sec. II-D).
type Features struct {
	Gamma1      float64 // γ1OPT(p = 1)
	Beta1       float64 // β1OPT(p = 1)
	TargetDepth int     // pt
}

// Vector flattens the features for the regression models.
func (f Features) Vector() []float64 {
	return []float64{f.Gamma1, f.Beta1, float64(f.TargetDepth)}
}

// FeaturesFromParams extracts Features from a depth-1 optimum.
// It panics if the params are not depth 1.
func FeaturesFromParams(p1 qaoa.Params, targetDepth int) Features {
	if p1.Depth() != 1 {
		panic(fmt.Sprintf("core: features need depth-1 params, got depth %d", p1.Depth()))
	}
	if targetDepth < 2 {
		panic(fmt.Sprintf("core: target depth %d < 2", targetDepth))
	}
	return Features{Gamma1: p1.Gamma[0], Beta1: p1.Beta[0], TargetDepth: targetDepth}
}

// HierFeatures is the hierarchical predictor input: the depth-1 and
// depth-2 optima plus the target depth (the Sec. I(d) "hierarchical
// prediction" tweak: optimal parameters from an intermediate stage
// along with the single-stage values).
type HierFeatures struct {
	Gamma1      float64   // γ1OPT(p = 1)
	Beta1       float64   // β1OPT(p = 1)
	Gamma2      []float64 // γiOPT(p = 2), length 2
	Beta2       []float64 // βiOPT(p = 2), length 2
	TargetDepth int       // pt
}

// Vector flattens the hierarchical features (7 values).
func (f HierFeatures) Vector() []float64 {
	v := make([]float64, 0, 7)
	v = append(v, f.Gamma1, f.Beta1)
	v = append(v, f.Gamma2...)
	v = append(v, f.Beta2...)
	return append(v, float64(f.TargetDepth))
}

// HierFeaturesFromParams builds HierFeatures from depth-1 and depth-2
// optima. It panics on wrong depths.
func HierFeaturesFromParams(p1, p2 qaoa.Params, targetDepth int) HierFeatures {
	if p1.Depth() != 1 || p2.Depth() != 2 {
		panic(fmt.Sprintf("core: hierarchical features need depths 1 and 2, got %d and %d",
			p1.Depth(), p2.Depth()))
	}
	if targetDepth < 3 {
		panic(fmt.Sprintf("core: hierarchical target depth %d < 3", targetDepth))
	}
	return HierFeatures{
		Gamma1:      p1.Gamma[0],
		Beta1:       p1.Beta[0],
		Gamma2:      append([]float64(nil), p2.Gamma...),
		Beta2:       append([]float64(nil), p2.Beta...),
		TargetDepth: targetDepth,
	}
}
