package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

// wireGoldenSpecs is one instance per non-MaxCut family with every
// field its dataset entry stores set to a value other than the default.
func wireGoldenSpecs() map[string]problem.Spec {
	triangle := graph.New(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := triangle.AddWeightedEdge(e[0], e[1], 1); err != nil {
			panic(err)
		}
	}
	coloring := problem.Coloring(triangle, 3)
	coloring.PenaltyA, coloring.PenaltyB = 2, 1.5
	return map[string]problem.Spec{
		problem.FamilyQUBO: problem.FromInstance(&problem.Instance{
			Family: problem.FamilyQUBO, Sense: problem.Maximize, N: 3, Vars: 2,
			Linear: []float64{0.5, 0, -1}, Offset: 2.75,
			Quad: []problem.Term{{I: 0, J: 1, W: -1}, {I: 1, J: 2, W: 0.125}},
		}),
		problem.FamilyMaxKSAT: problem.MaxKSAT(&problem.Formula{
			Vars: 3, Clauses: []problem.Clause{{1, -2}, {-1, 2, 3}}, Weights: []float64{2, 0.5},
		}),
		problem.FamilyPartition: problem.Partition([]float64{3, 1.5, 4}),
		problem.FamilyPortfolio: problem.Portfolio(&problem.PortfolioSpec{
			Returns:      []float64{0.1, 0.2, 0.05},
			Covariance:   [][]float64{{0.2, 0.01, 0}, {0.01, 0.3, -0.02}, {0, -0.02, 0.1}},
			RiskAversion: 0.5, Budget: 1, Penalty: 4,
		}),
		problem.FamilyColoring: coloring,
	}
}

// A saved v2 dataset does not move: testdata/wire holds, per family,
// the bytes Save wrote for one instance and one record before the
// dataset file began encoding its instances through problem.Wire. Each
// file also loads, and saves back to the same bytes.
func TestDatasetWirePinned(t *testing.T) {
	for family, spec := range wireGoldenSpecs() {
		t.Run(family, func(t *testing.T) {
			d := &Data{
				Config: DataGenConfig{
					NumGraphs: 1, Nodes: 3, EdgeProb: 0.5, MaxDepth: 1,
					Starts: 2, Tol: 1e-6, Seed: 7, Family: family,
				},
				Problems: []*qaoa.Problem{{Spec: spec}},
				Records: [][]Record{{{
					Depth:  1,
					Params: qaoa.Params{Gamma: []float64{0.5}, Beta: []float64{-0.25}},
					NegF:   -1.5, AR: 0.75, NFev: 24, MeanFev: 12,
				}}},
			}
			var buf bytes.Buffer
			if err := d.Save(&buf); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "wire", family+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("saved bytes moved:\n got %s\nwant %s", buf.Bytes(), want)
			}
			loaded, err := Load(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			wantFP, err := spec.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if fp, err := loaded.Problems[0].Spec.Fingerprint(); err != nil || fp != wantFP {
				t.Errorf("loaded fingerprint %s (%v), want %s", fp, err, wantFP)
			}
			buf.Reset()
			if err := loaded.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("load + save moved the bytes:\n got %s\nwant %s", buf.Bytes(), want)
			}
		})
	}
}
