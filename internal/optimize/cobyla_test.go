package optimize_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
)

// An evaluation is deterministic, so a COBYLA run never needs to call its
// objective twice at the same point: on four seeded n = 8 MaxCut
// instances at p = 2–4, from 8 random starts each, no run repeats the
// Float64bits of an x.
func TestCOBYLANeverRepeatsAPoint(t *testing.T) {
	opt := &optimize.COBYLA{Tol: 1e-6}
	repeats, calls := 0, 0
	for gs := int64(0); gs < 4; gs++ {
		pb, err := qaoa.NewProblem(graph.ErdosRenyiConnected(8, 0.5, rand.New(rand.NewSource(80+gs))))
		if err != nil {
			t.Fatal(err)
		}
		for p := 2; p <= 4; p++ {
			lo, hi := make([]float64, 2*p), make([]float64, 2*p)
			for j := 0; j < p; j++ {
				hi[j], hi[p+j] = qaoa.GammaMax, qaoa.BetaMax
			}
			bounds := optimize.NewBounds(lo, hi)
			for s := int64(0); s < 8; s++ {
				ev := qaoa.NewEvaluator(pb, p)
				seen := map[string]bool{}
				r := optimize.Run(context.Background(), optimize.Problem{
					F: func(x []float64) float64 {
						var key strings.Builder
						for _, v := range x {
							fmt.Fprintf(&key, "%016x", math.Float64bits(v))
						}
						if seen[key.String()] {
							repeats++
						}
						seen[key.String()] = true
						calls++
						return ev.NegExpectation(x)
					},
					X0: bounds.Random(rand.New(rand.NewSource(s))), Bounds: bounds,
				}, optimize.Options{Optimizer: opt})
				ev.Release()
				if r.Status != optimize.Converged {
					t.Errorf("graph %d p=%d start %d: %s", gs, p, s, r.Message)
				}
			}
		}
	}
	if repeats != 0 {
		t.Errorf("%d of %d calls repeated a point of their run", repeats, calls)
	}
}
