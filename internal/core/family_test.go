package core

import (
	"context"
	"testing"

	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
)

// Datagen over non-MaxCut families: the ensemble generator must
// produce optimizable instances, and records must carry normalized ARs
// in [0, 1].
func TestGenerateFamilyEnsembles(t *testing.T) {
	for _, fam := range []string{problem.FamilyQUBO, problem.FamilyPartition} {
		cfg := DataGenConfig{
			NumGraphs: 3,
			Nodes:     6,
			EdgeProb:  0.5,
			MaxDepth:  2,
			Starts:    2,
			Seed:      11,
			Family:    fam,
			Optimizer: &optimize.LBFGSB{Tol: 1e-4},
		}
		data, err := GenerateCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		for g, recs := range data.Records {
			if len(recs) != cfg.MaxDepth {
				t.Fatalf("%s: instance %d has %d records, want %d", fam, g, len(recs), cfg.MaxDepth)
			}
			for _, r := range recs {
				if r.AR < -1e-12 || r.AR > 1+1e-12 {
					t.Errorf("%s: instance %d depth %d AR %v out of [0, 1]", fam, g, r.Depth, r.AR)
				}
			}
		}
	}
}

// Family determinism: same (family, seed) must regenerate the same
// instances — the contract that lets non-MaxCut datasets skip
// persistence.
func TestGenerateFamilyDeterministic(t *testing.T) {
	cfg := DataGenConfig{
		NumGraphs: 2, Nodes: 6, EdgeProb: 0.5, MaxDepth: 1, Starts: 1, Seed: 5,
		Family:    problem.FamilyQUBO,
		Optimizer: &optimize.LBFGSB{Tol: 1e-4},
	}
	a, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for g := range a.Problems {
		fa, fb := a.Problems[g].Inst.Fingerprint(), b.Problems[g].Inst.Fingerprint()
		if fa != fb {
			t.Errorf("instance %d fingerprint differs across identical configs", g)
		}
		if a.Record(g, 1).NegF != b.Record(g, 1).NegF {
			t.Errorf("instance %d optimum differs across identical configs", g)
		}
	}
}
