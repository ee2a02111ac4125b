package qaoa

import (
	"math"
	"testing"
)

func TestInterpolateDepth1(t *testing.T) {
	pr := Params{Gamma: []float64{0.6}, Beta: []float64{0.3}}
	out := Interpolate(pr)
	if out.Depth() != 2 {
		t.Fatalf("depth = %d", out.Depth())
	}
	// p = 1: θ'_1 = θ_1, θ'_2 = θ_1 (i=2: (1/1)θ_1 + 0).
	if math.Abs(out.Gamma[0]-0.6) > 1e-15 || math.Abs(out.Gamma[1]-0.6) > 1e-15 {
		t.Errorf("gamma = %v", out.Gamma)
	}
	if math.Abs(out.Beta[0]-0.3) > 1e-15 || math.Abs(out.Beta[1]-0.3) > 1e-15 {
		t.Errorf("beta = %v", out.Beta)
	}
}

func TestInterpolateDepth2(t *testing.T) {
	pr := Params{Gamma: []float64{0.4, 0.8}, Beta: []float64{0.5, 0.2}}
	out := Interpolate(pr)
	// i=1: θ_1 = 0.4; i=2: ½θ_1 + ½θ_2 = 0.6; i=3: θ_2 = 0.8.
	wantG := []float64{0.4, 0.6, 0.8}
	for i := range wantG {
		if math.Abs(out.Gamma[i]-wantG[i]) > 1e-15 {
			t.Fatalf("gamma = %v, want %v", out.Gamma, wantG)
		}
	}
	wantB := []float64{0.5, 0.35, 0.2}
	for i := range wantB {
		if math.Abs(out.Beta[i]-wantB[i]) > 1e-15 {
			t.Fatalf("beta = %v, want %v", out.Beta, wantB)
		}
	}
}

// Monotone schedules stay monotone under interpolation — the property
// that keeps the INTERP seed inside the regular optimum family.
func TestInterpolatePreservesMonotonicity(t *testing.T) {
	pr := Params{Gamma: []float64{0.3, 0.6, 0.9}, Beta: []float64{0.5, 0.35, 0.2}}
	out := Interpolate(pr)
	for i := 1; i < out.Depth(); i++ {
		if out.Gamma[i] < out.Gamma[i-1]-1e-12 {
			t.Errorf("gamma not nondecreasing: %v", out.Gamma)
		}
		if out.Beta[i] > out.Beta[i-1]+1e-12 {
			t.Errorf("beta not nonincreasing: %v", out.Beta)
		}
	}
}

// The interpolated point should be a materially better start than the
// zero-parameter (uniform-state) baseline: it lands in the basin of the
// regular optimum family rather than at a generic point.
func TestInterpolateIsWarmStart(t *testing.T) {
	pb := mustProblem(t, cycleGraph(5))
	// Depth-1 optimum found by a fine grid.
	best := bestOnGrid(pb, 1, 48)
	seed := Interpolate(best.pr)
	arSeed := stateVectorRatio(pb, seed)
	baseline := stateVectorRatio(pb, NewParams(2)) // uniform state: (m/2)/C_opt
	if arSeed < baseline+0.05 {
		t.Errorf("interp seed AR %v not better than uniform baseline %v", arSeed, baseline)
	}
}
