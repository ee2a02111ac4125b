package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"qaoaml/internal/core"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

// hierTestData is core's shared test dataset (16 6-node graphs, depths
// 1..3, four starts, seed 7) with its predictors trained on half of it.
func hierTestData(t *testing.T) (*core.Data, *core.Predictor, hierBanks) {
	t.Helper()
	data, err := core.GenerateCtx(context.Background(), core.DataGenConfig{
		NumGraphs: 16, Nodes: 6, EdgeProb: 0.5, MaxDepth: 3, Starts: 4, Tol: 1e-6, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, _ := data.SplitIndices(0.5, 1)
	pred := core.NewPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		t.Fatal(err)
	}
	banks, err := trainHier(data, train)
	if err != nil {
		t.Fatal(err)
	}
	return data, pred, banks
}

// testdata/hier_bits.json holds the hierarchical p = 3 rows of core's
// testdata/solve_bits.json (recorded at 75a0449, when the flow was a
// strategy of core.Solve): five families × four optimizers × two seeds,
// as Float64bits of level 1's angles, AR and NFev, level 2's, the
// hierarchical prediction, level 3's, then the total NFev. Every row was
// re-recorded when the gradient methods' line searches became one and
// COBYLA stopped re-evaluating its base point. solveHier must reproduce
// every row, with and without an arena.
func TestHierarchicalBitsUnchanged(t *testing.T) {
	raw, err := os.ReadFile("testdata/hier_bits.json")
	if err != nil {
		t.Fatal(err)
	}
	var recorded []struct {
		Key  string   `json:"key"`
		Vals []string `json:"vals"`
	}
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, r := range recorded {
		want[r.Key] = r.Vals
	}
	_, pred, banks := hierTestData(t)
	opts := map[string]optimize.Optimizer{
		"lbfgsb":     &optimize.LBFGSB{Tol: 1e-6},
		"slsqp":      &optimize.SLSQP{Tol: 1e-6},
		"neldermead": &optimize.NelderMead{Tol: 1e-6},
		"cobyla":     &optimize.COBYLA{Tol: 1e-6},
	}
	arena := qaoa.NewArena(0)
	defer arena.Close()
	checked := 0
	for i, fam := range []string{problem.FamilyMaxCut, problem.FamilyQUBO, problem.FamilyMaxKSAT, problem.FamilyPartition, problem.FamilyPortfolio} {
		spec, err := problem.RandomSpec(fam, 8, rand.New(rand.NewSource(int64(40+i))))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := qaoa.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, opt := range opts {
			for _, seed := range []int64{1, 7} {
				for _, a := range []*qaoa.Arena{nil, arena} {
					key := fmt.Sprintf("%s/%s/hierarchical-p3/seed%d", fam, name, seed)
					r, err := solveHier(pb, core.Options{
						Depth: 3, Optimizer: opt, Predictor: pred, Rng: rand.New(rand.NewSource(seed)), Arena: a,
					}, banks)
					if err != nil || len(r.Stages) != 3 {
						t.Fatalf("%s: %d stages, %v", key, len(r.Stages), err)
					}
					var got []string
					put := func(v uint64) { got = append(got, fmt.Sprintf("%016x", v)) }
					params := func(p qaoa.Params) {
						for _, v := range p.Vector() {
							put(math.Float64bits(v))
						}
					}
					for k, s := range r.Stages {
						if k == 2 {
							params(r.Predicted)
						}
						params(s.Params)
						put(math.Float64bits(s.AR))
						put(uint64(s.NFev))
					}
					put(uint64(r.NFev))
					checked++
					if !reflect.DeepEqual(got, want[key]) {
						t.Errorf("%s:\n got  %v\n want %v", key, got, want[key])
					}
				}
			}
		}
	}
	if checked != 2*len(want) {
		t.Errorf("checked %d rows, recorded %d", checked, len(want))
	}
}

func TestHierarchicalFlow(t *testing.T) {
	data, pred, banks := hierTestData(t)
	_, test := data.SplitIndices(0.5, 1)
	pb := data.Problems[test[0]]
	o := core.Options{Depth: 3, Optimizer: &optimize.LBFGSB{Tol: 1e-6}, Predictor: pred, Rng: rand.New(rand.NewSource(5))}
	res, err := solveHier(pb, o, banks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 3 || res.NFev != res.Stages[0].NFev+res.Stages[1].NFev+res.Stages[2].NFev {
		t.Fatalf("NFev %d over stages %+v", res.NFev, res.Stages)
	}
	if res.AR <= 0 || res.AR > 1+1e-9 || res.AR != res.Stages[2].AR {
		t.Errorf("AR = %v, level 3's %v", res.AR, res.Stages[2].AR)
	}
	if res.Stages[1].Params.Depth() != 2 || res.Params.Depth() != 3 || res.Predicted.Depth() != 3 {
		t.Error("stage depths wrong")
	}
	o.Depth = 2
	if _, err := solveHier(pb, o, banks); err == nil {
		t.Error("hierarchical target depth 2 accepted")
	}
}

func TestHierFeaturesVector(t *testing.T) {
	p1 := qaoa.Params{Gamma: []float64{1}, Beta: []float64{2}}
	p2 := qaoa.Params{Gamma: []float64{3, 4}, Beta: []float64{5, 6}}
	if got, want := hierFeatures(p1, p2), []float64{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("hierFeatures = %v, want %v", got, want)
	}
}

func TestHierBanksRequireDepth3(t *testing.T) {
	data, err := core.GenerateCtx(context.Background(), core.DataGenConfig{
		NumGraphs: 3, Nodes: 4, EdgeProb: 0.9, MaxDepth: 2, Starts: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainHier(data, []int{0, 1, 2}); err == nil {
		t.Error("hierarchical training on depth-2 data accepted")
	}
}
