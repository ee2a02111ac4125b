// Package core implements the paper's contribution: ML-accelerated QAOA
// parameter initialization. It generates the optimal-parameter dataset
// (Sec. III-A), extracts the paper's predictor inputs (γ1OPT(p=1),
// β1OPT(p=1), target depth pt — Sec. II-D) as the features (γ1, β1),
// with pt selecting the bank, trains the per-depth regression banks
// (Sec. III-C), and runs every optimization flow — naive from one or
// more starts and the two-level flow of Fig. 4 — through one entry
// point, Solve. (The hierarchical variant sketched in Sec. I(d) is an
// experiment built on Solve, internal/experiments.)
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
	TargetDepth int     // pt, which selects the bank
}

// Vector flattens the features a bank reads: (γ1, β1). pt is the same
// in every row of a bank, so it selects the bank instead.
func (f Features) Vector() []float64 {
	return []float64{f.Gamma1, f.Beta1}
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
