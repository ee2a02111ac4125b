package experiments

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

var claimSeeds = flag.String("claims.seeds", "1", "comma-separated dataset seeds TestPaperClaimsReferenceScale asserts the paper's claims at")

// referenceScale is the smallest scale at which the paper's qualitative
// claims hold at every seed measured (1–5): 120 graphs, depths 1..5, 20
// starts, 5 Table I repetitions on 60 test graphs.
func referenceScale(seed int64) Scale {
	s := DefaultScale()
	s.NumGraphs, s.MaxDepth, s.Starts, s.Reps, s.TestGraphs, s.MaxTarget = 120, 5, 20, 5, 60, 5
	s.Seed = seed
	return s
}

// The paper's claims, at reference scale (about 7 s per seed on 2 vCPUs):
// the two-level flow is at least as good as naive initialization in
// every Table I cell and cheaper in nearly all of them, its saving
// grows with depth for the gradient optimizers, Fig. 5's depth-1
// angles are strongly correlated and Fig. 6's prediction error grows
// with the target depth. Sec. III-C's ranking of the models is not
// asserted (EXPERIMENTS.md says why). -claims.seeds picks the seeds.
func TestPaperClaimsReferenceScale(t *testing.T) {
	if raceEnabled {
		t.Skip("reference scale is too slow under the race detector")
	}
	for _, f := range strings.Split(*claimSeeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("-claims.seeds %q: %v", *claimSeeds, err)
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			env, err := NewEnvCtx(context.Background(), referenceScale(seed), nil)
			if err != nil {
				t.Fatal(err)
			}
			assertPaperClaims(t, RunTable1(env), RunFig5(env), RunFig6(env))
		})
	}
}

func assertPaperClaims(t *testing.T, tab ArmTable, fig5 Fig5Result, fig6 Fig6Result) {
	if len(tab.Rows) != 16 {
		t.Fatalf("Table I has %d cells, want 4 optimizers × p = 2..5", len(tab.Rows))
	}
	positive := 0
	reduction := map[string]map[int]float64{}
	for _, r := range tab.Rows {
		naive, two := r.Arms[0], r.Arms[1]
		if two.MeanAR < naive.MeanAR {
			t.Errorf("%s p=%d: AR(2-level) %.4f < AR(naive) %.4f", r.Optimizer, r.Depth, two.MeanAR, naive.MeanAR)
		}
		if two.FCReductionPct > 0 {
			positive++
		} else if r.Optimizer != "SLSQP" || r.Depth > 3 {
			t.Errorf("%s p=%d: FC reduction %.1f%% is not positive; only SLSQP at p <= 3 may be", r.Optimizer, r.Depth, two.FCReductionPct)
		}
		if reduction[r.Optimizer] == nil {
			reduction[r.Optimizer] = map[int]float64{}
		}
		reduction[r.Optimizer][r.Depth] = two.FCReductionPct
	}
	if positive < 14 {
		t.Errorf("%d of 16 cells reduce FC, want at least 14", positive)
	}
	for _, opt := range []string{"L-BFGS-B", "SLSQP"} {
		for p := 3; p <= 5; p++ {
			if lo, hi := reduction[opt][p-1], reduction[opt][p]; !(hi > lo) {
				t.Errorf("%s: FC reduction %.1f%% at p=%d does not rise from %.1f%% at p=%d", opt, hi, p, lo, p-1)
			}
		}
	}
	if avg, _ := tab.FCReduction(1); avg < 28 {
		t.Errorf("mean FC reduction %.1f%%, want >= 28%%", avg)
	}
	if r := fig5.RGamma1Beta1; !(r >= 0.88) {
		t.Errorf("Fig. 5: r(γ1, β1) = %.3f, want >= 0.88", r)
	}
	errAt := map[int]float64{}
	for _, pt := range fig6.Points {
		errAt[pt.Depth] = pt.MeanPct
	}
	if !(errAt[5] > errAt[2]) {
		t.Errorf("Fig. 6: mean error %.1f%% at p=5 does not exceed %.1f%% at p=2", errAt[5], errAt[2])
	}
}
