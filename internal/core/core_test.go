package core

import (
	"context"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"qaoaml/internal/ml"
	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/stats"
)

// solve is Solve on a background context, failing the test on error.
func solve(t testing.TB, pb *qaoa.Problem, o Options) Result {
	t.Helper()
	r, err := Solve(context.Background(), pb, o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// testData generates a small deterministic dataset shared by the tests.
func testData(t testing.TB) *Data {
	t.Helper()
	cfg := DataGenConfig{
		NumGraphs: 16,
		Nodes:     6,
		EdgeProb:  0.5,
		MaxDepth:  3,
		Starts:    4,
		Tol:       1e-6,
		Seed:      7,
	}
	data, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestFeaturesVector(t *testing.T) {
	p1 := qaoa.Params{Gamma: []float64{1.5}, Beta: []float64{0.4}}
	f := FeaturesFromParams(p1, 4)
	v := f.Vector()
	if len(v) != 3 || v[0] != 1.5 || v[1] != 0.4 || v[2] != 4 {
		t.Errorf("Vector = %v", v)
	}
}

func TestFeaturesValidation(t *testing.T) {
	p2 := qaoa.NewParams(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("depth-2 params accepted as features")
			}
		}()
		FeaturesFromParams(p2, 3)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("target depth 1 accepted")
			}
		}()
		FeaturesFromParams(qaoa.NewParams(1), 1)
	}()
}

func TestParamBounds(t *testing.T) {
	b := ParamBounds(3)
	if b.Dim() != 6 {
		t.Fatalf("Dim = %d", b.Dim())
	}
	for i := 0; i < 3; i++ {
		if b.Lo[i] != 0 || math.Abs(b.Hi[i]-qaoa.GammaMax) > 1e-15 {
			t.Errorf("gamma bounds[%d] = [%v, %v]", i, b.Lo[i], b.Hi[i])
		}
		if b.Lo[3+i] != 0 || math.Abs(b.Hi[3+i]-qaoa.BetaMax) > 1e-15 {
			t.Errorf("beta bounds[%d] = [%v, %v]", i, b.Lo[3+i], b.Hi[3+i])
		}
	}
}

func TestGenerateShapeAndDeterminism(t *testing.T) {
	data := testData(t)
	if len(data.Problems) != 16 || len(data.Records) != 16 {
		t.Fatalf("sizes = %d/%d", len(data.Problems), len(data.Records))
	}
	for g, recs := range data.Records {
		if len(recs) != 3 {
			t.Fatalf("graph %d has %d depth records", g, len(recs))
		}
		for d, r := range recs {
			if r.Depth != d+1 || r.GraphID != g {
				t.Fatalf("record indexing wrong: %+v", r)
			}
			if r.AR <= 0 || r.AR > 1+1e-9 {
				t.Errorf("graph %d depth %d AR = %v", g, d+1, r.AR)
			}
			if r.NFev <= 0 {
				t.Errorf("graph %d depth %d NFev = %d", g, d+1, r.NFev)
			}
			if err := r.Params.Validate(true); err != nil {
				t.Errorf("graph %d depth %d params out of domain: %v", g, d+1, err)
			}
		}
	}
	// NumParams = graphs · Σ 2p = 16 · (2+4+6) = 192.
	if got := data.NumParams(); got != 192 {
		t.Errorf("NumParams = %d, want 192", got)
	}
	// Determinism.
	data2 := testData(t)
	for g := range data.Records {
		for d := range data.Records[g] {
			a, b := data.Records[g][d], data2.Records[g][d]
			if a.NegF != b.NegF || a.NFev != b.NFev {
				t.Fatalf("non-deterministic generation at graph %d depth %d", g, d+1)
			}
		}
	}
}

func TestGenerateValidatesConfig(t *testing.T) {
	bad := []DataGenConfig{
		{NumGraphs: 0, Nodes: 6, EdgeProb: 0.5, MaxDepth: 2, Starts: 1},
		{NumGraphs: 1, Nodes: 1, EdgeProb: 0.5, MaxDepth: 2, Starts: 1},
		{NumGraphs: 1, Nodes: 6, EdgeProb: 0, MaxDepth: 2, Starts: 1},
		{NumGraphs: 1, Nodes: 6, EdgeProb: 0.5, MaxDepth: 0, Starts: 1},
		{NumGraphs: 1, Nodes: 6, EdgeProb: 0.5, MaxDepth: 2, Starts: 0},
	}
	for i, cfg := range bad {
		if _, err := GenerateCtx(context.Background(), cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestDeeperIsNotWorse(t *testing.T) {
	// Multistart optima should (weakly) improve with depth on most
	// graphs; assert the dataset-wide mean AR is monotone.
	data := testData(t)
	means := make([]float64, 3)
	for _, recs := range data.Records {
		for d, r := range recs {
			means[d] += r.AR / float64(len(data.Records))
		}
	}
	if means[1] < means[0]-0.01 || means[2] < means[1]-0.01 {
		t.Errorf("mean AR not improving with depth: %v", means)
	}
}

func TestSplitIndices(t *testing.T) {
	data := testData(t)
	train, test := data.SplitIndices(0.25, 3)
	if len(train) != 4 || len(test) != 12 {
		t.Fatalf("split = %d/%d", len(train), len(test))
	}
	seen := map[int]bool{}
	for _, id := range append(append([]int{}, train...), test...) {
		if seen[id] {
			t.Fatal("duplicate id in split")
		}
		seen[id] = true
	}
	if len(seen) != 16 {
		t.Errorf("ids lost: %d", len(seen))
	}
}

func TestPredictorTrainPredict(t *testing.T) {
	data := testData(t)
	train, test := data.SplitIndices(0.5, 1)
	pred := NewPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		t.Fatal(err)
	}
	depths := pred.TargetDepths()
	if len(depths) != 2 || depths[0] != 2 || depths[1] != 3 {
		t.Fatalf("TargetDepths = %v", depths)
	}
	// Predictions stay in domain and are not absurdly far from truth.
	for _, g := range test {
		p1 := data.Record(g, 1).Params
		for _, pt := range depths {
			got, err := pred.Predict(FeaturesFromParams(p1, pt))
			if err != nil {
				t.Fatal(err)
			}
			if got.Depth() != pt {
				t.Fatalf("predicted depth %d, want %d", got.Depth(), pt)
			}
			if err := got.Validate(true); err != nil {
				t.Errorf("prediction out of domain: %v", err)
			}
		}
	}
}

func TestPredictorUnknownDepth(t *testing.T) {
	data := testData(t)
	train, _ := data.SplitIndices(0.5, 1)
	pred := NewPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		t.Fatal(err)
	}
	if _, err := pred.Predict(Features{Gamma1: 1, Beta1: 1, TargetDepth: 9}); err == nil {
		t.Error("prediction for untrained depth accepted")
	}
}

func TestPredictorRequiresDepth2(t *testing.T) {
	cfg := DataGenConfig{NumGraphs: 2, Nodes: 4, EdgeProb: 0.9, MaxDepth: 1, Starts: 1, Seed: 1}
	data, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewPredictor(nil).Train(data, []int{0, 1}); err == nil {
		t.Error("training on depth-1-only data accepted")
	}
}

func TestNaiveRun(t *testing.T) {
	data := testData(t)
	rng := rand.New(rand.NewSource(2))
	opt := &optimize.LBFGSB{Tol: 1e-6}
	r := solve(t, data.Problems[0], Options{Depth: 2, Optimizer: opt, Rng: rng})
	if r.NFev <= 0 || r.AR <= 0 || r.AR > 1+1e-9 {
		t.Errorf("naive Solve = %+v", r)
	}
	if r.Params.Depth() != 2 {
		t.Errorf("depth = %d", r.Params.Depth())
	}
}

func TestTwoLevelFlow(t *testing.T) {
	data := testData(t)
	train, test := data.SplitIndices(0.5, 1)
	pred := NewPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		t.Fatal(err)
	}
	opt := &optimize.LBFGSB{Tol: 1e-6}
	rng := rand.New(rand.NewSource(3))
	pb := data.Problems[test[0]]
	o := Options{Strategy: StrategyTwoLevel, Depth: 3, Optimizer: opt, Predictor: pred, Rng: rng}
	res := solve(t, pb, o)
	if len(res.Stages) != 2 || res.NFev != res.Stages[0].NFev+res.Stages[1].NFev {
		t.Fatalf("NFev %d over stages %+v", res.NFev, res.Stages)
	}
	if res.Stages[0].Params.Depth() != 1 || res.Stages[1].Params.Depth() != 3 || res.Params.Depth() != 3 {
		t.Error("level depths wrong")
	}
	if res.AR <= 0 || res.AR > 1+1e-9 || res.AR != res.Stages[1].AR {
		t.Errorf("AR = %v", res.AR)
	}
	if err := res.Predicted.Validate(true); err != nil {
		t.Errorf("predicted init out of domain: %v", err)
	}
	o.Depth = 1
	if _, err := Solve(context.Background(), pb, o); err == nil {
		t.Error("target depth 1 accepted")
	}
}

// The headline claim, at test scale: averaged over test graphs, the
// two-level flow spends fewer QC calls than the naive flow at the same
// depth while matching AR.
func TestTwoLevelReducesFunctionCalls(t *testing.T) {
	data := testData(t)
	train, test := data.SplitIndices(0.5, 1)
	pred := NewPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		t.Fatal(err)
	}
	opt := &optimize.LBFGSB{Tol: 1e-6}
	const pt = 3
	var naiveFC, twoFC, naiveAR, twoAR float64
	runs := 0
	for _, g := range test {
		pb := data.Problems[g]
		rng := rand.New(rand.NewSource(int64(100 + g)))
		for rep := 0; rep < 3; rep++ {
			nv := solve(t, pb, Options{Depth: pt, Optimizer: opt, Rng: rng})
			tl := solve(t, pb, Options{Strategy: StrategyTwoLevel, Depth: pt, Optimizer: opt, Predictor: pred, Rng: rng})
			naiveFC += float64(nv.NFev)
			twoFC += float64(tl.NFev)
			naiveAR += nv.AR
			twoAR += tl.AR
			runs++
		}
	}
	naiveFC /= float64(runs)
	twoFC /= float64(runs)
	naiveAR /= float64(runs)
	twoAR /= float64(runs)
	t.Logf("naive FC=%.1f AR=%.4f | two-level FC=%.1f AR=%.4f (reduction %.1f%%)",
		naiveFC, naiveAR, twoFC, twoAR, 100*(1-twoFC/naiveFC))
	if twoFC >= naiveFC {
		t.Errorf("two-level FC %.1f >= naive FC %.1f", twoFC, naiveFC)
	}
	if twoAR < naiveAR-0.03 {
		t.Errorf("two-level AR %.4f much worse than naive %.4f", twoAR, naiveAR)
	}
}

// The other three families train and predict in memory (Sec. III-C's
// comparison) but do not save: a model file holds GPR banks only.
func TestPredictorWithOtherModels(t *testing.T) {
	data := testData(t)
	train, _ := data.SplitIndices(0.5, 1)
	factories := map[string]func() ml.Regressor{
		"LM":    func() ml.Regressor { return &ml.Linear{} },
		"RTREE": func() ml.Regressor { return &ml.Tree{} },
		"RSVM":  func() ml.Regressor { return &ml.SVR{} },
	}
	for name, f := range factories {
		pred := NewPredictor(f)
		if err := pred.Train(data, train); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		p1 := data.Record(0, 1).Params
		got, err := pred.Predict(FeaturesFromParams(p1, 2))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := got.Validate(true); err != nil {
			t.Errorf("%s: prediction out of domain: %v", name, err)
		}
		if err := pred.Save(io.Discard); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Save err %v, want a refusal naming the family", name, err)
		}
	}
}

// Dataset-level pattern check (the paper's Fig. 2 observation as an
// invariant): over the generated ensemble, γ grows and β shrinks
// between stages in the clear majority of transitions.
func TestDatasetParameterPatterns(t *testing.T) {
	data := testData(t)
	gammaUp, betaDown, total := 0, 0, 0
	for g := range data.Problems {
		for d := 2; d <= data.Config.MaxDepth; d++ {
			params := data.Record(g, d).Params
			for i := 1; i < d; i++ {
				total++
				if params.Gamma[i] >= params.Gamma[i-1]-1e-9 {
					gammaUp++
				}
				if params.Beta[i] <= params.Beta[i-1]+1e-9 {
					betaDown++
				}
			}
		}
	}
	if float64(gammaUp) < 0.7*float64(total) {
		t.Errorf("γ increasing in only %d/%d transitions", gammaUp, total)
	}
	if float64(betaDown) < 0.7*float64(total) {
		t.Errorf("β decreasing in only %d/%d transitions", betaDown, total)
	}
}

// The depth-1 features must correlate strongly across the ensemble —
// the Sec. III-B r = 0.92 observation as an invariant.
func TestDatasetP1Correlation(t *testing.T) {
	data := testData(t)
	var g1, b1 []float64
	for g := range data.Problems {
		p1 := data.Record(g, 1).Params
		g1 = append(g1, p1.Gamma[0])
		b1 = append(b1, p1.Beta[0])
	}
	if r := stats.Pearson(g1, b1); r < 0.5 {
		t.Errorf("r(γ1, β1) = %v, want strongly positive", r)
	}
}

// Seeds replace random starts one-for-one, keeping the total start
// count (and thus the FC accounting) unchanged.
func TestOptimizeDepthSeedAccounting(t *testing.T) {
	data := testData(t)
	pb := data.Problems[0]
	opt := &optimize.LBFGSB{Tol: 1e-6}
	seed := qaoa.Params{Gamma: []float64{0.4, 0.8}, Beta: []float64{0.5, 0.25}}

	// Same RNG stream: with a seed leg, the first random start is
	// replaced, so the run count is identical but the trajectories differ.
	multi := func(starts int, rngSeed int64, seeds ...qaoa.Params) Result {
		return solve(t, pb, Options{
			Strategy: StrategyMultiStart, Depth: 2, Optimizer: opt, Starts: starts,
			Rng: rand.New(rand.NewSource(rngSeed)), Seeds: seeds,
		})
	}
	recPlain := multi(3, 9)
	recSeeded := multi(3, 9, seed)
	if recPlain.NFev <= 0 || recSeeded.NFev <= 0 {
		t.Fatal("no evaluations")
	}
	// The seeded run must be at least as good as the plain run when the
	// seed is a strong initialization (it explores a superset quality-
	// wise only statistically; assert best-F sanity instead).
	if recSeeded.AR <= 0 || recSeeded.AR > 1+1e-9 {
		t.Errorf("seeded AR = %v", recSeeded.AR)
	}
	// With starts=1 and a seed, the single leg is the seed itself:
	// deterministic regardless of the RNG.
	a := multi(1, 1, seed)
	b := multi(1, 2, seed)
	if a.NegF != b.NegF || a.NFev != b.NFev {
		t.Error("seed-only run not deterministic across RNGs")
	}
}

// Out-of-domain seeds are clipped into the optimization box rather than
// crashing the optimizer.
func TestOptimizeDepthClipsSeeds(t *testing.T) {
	data := testData(t)
	pb := data.Problems[1]
	opt := &optimize.LBFGSB{Tol: 1e-6}
	wild := qaoa.Params{Gamma: []float64{99, -7}, Beta: []float64{42, -1}}
	rec := solve(t, pb, Options{
		Strategy: StrategyMultiStart, Depth: 2, Optimizer: opt, Starts: 2,
		Rng: rand.New(rand.NewSource(3)), Seeds: []qaoa.Params{wild},
	})
	if err := rec.Params.Validate(true); err != nil {
		t.Errorf("result out of domain: %v", err)
	}
}
