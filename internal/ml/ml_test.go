package ml

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func allModels() []Regressor {
	return []Regressor{&Linear{}, &GPR{}, &Tree{}, &SVR{}}
}

// linearData samples y = 2x0 − 3x1 + 1 (+ optional noise).
func linearData(rng *rand.Rand, n int, noise float64) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		y[i] = 2*x[i][0] - 3*x[i][1] + 1 + noise*rng.NormFloat64()
	}
	return x, y
}

// smoothData samples y = sin(x0) + 0.5·cos(2·x1).
func smoothData(rng *rand.Rand, n int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64() * 2 * math.Pi, rng.Float64() * math.Pi}
		y[i] = math.Sin(x[i][0]) + 0.5*math.Cos(2*x[i][1])
	}
	return x, y
}

func TestLinearRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := linearData(rng, 60, 0)
	var lm Linear
	if err := lm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(lm.Intercept-1) > 1e-8 || math.Abs(lm.Coef[0]-2) > 1e-8 || math.Abs(lm.Coef[1]+3) > 1e-8 {
		t.Errorf("intercept=%v coef=%v", lm.Intercept, lm.Coef)
	}
	if got := lm.Predict([]float64{1, 1}); math.Abs(got-0) > 1e-8 {
		t.Errorf("Predict(1,1) = %v, want 0", got)
	}
}

func TestLinearWithNoiseStillClose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := linearData(rng, 300, 0.1)
	var lm Linear
	if err := lm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(lm.Coef[0]-2) > 0.1 || math.Abs(lm.Coef[1]+3) > 0.1 {
		t.Errorf("coef = %v", lm.Coef)
	}
}

func TestLinearConstantFeatureFallback(t *testing.T) {
	// Second feature constant → rank-deficient design → ridge fallback.
	x := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []float64{2, 4, 6, 8}
	var lm Linear
	if err := lm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := lm.Predict([]float64{2.5, 5}); math.Abs(got-5) > 1e-3 {
		t.Errorf("Predict = %v, want 5", got)
	}
}

func TestGPRInterpolatesSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := smoothData(rng, 80)
	var g GPR
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := smoothData(rng, 40)
	pred := PredictBatch(&g, xt)
	m := Evaluate(yt, pred, 2)
	if m.RMSE > 0.1 {
		t.Errorf("GPR RMSE = %v (metrics: %v)", m.RMSE, m)
	}
}

func TestGPRVarianceShrinksNearData(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 1, 0, -1}
	g := GPR{NoiseVar: 1e-4}
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	_, vAt := g.PredictWithVariance([]float64{1})
	_, vFar := g.PredictWithVariance([]float64{10})
	if vAt >= vFar {
		t.Errorf("variance at data %v >= far %v", vAt, vFar)
	}
	if vAt < 0 || vFar < 0 {
		t.Error("negative variance")
	}
}

func TestGPRFixedHyperparameters(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []float64{1, 2, 3}
	g := GPR{LengthScale: 2, SignalVar: 1, NoiseVar: 1e-3}
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	ell, sf2, sn2 := g.Hyperparameters()
	if ell != 2 || sf2 != 1 || sn2 != 1e-3 {
		t.Errorf("hyperparameters = %v %v %v", ell, sf2, sn2)
	}
	if math.IsInf(g.LogMarginalLikelihood(), 0) || math.IsNaN(g.LogMarginalLikelihood()) {
		t.Error("bad log marginal likelihood")
	}
}

func TestTreeFitsPiecewiseStructure(t *testing.T) {
	// Step function: tree should nail it, linear model cannot.
	var x [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		v := float64(i) / 10
		x = append(x, []float64{v})
		if v < 3 {
			y = append(y, 1)
		} else {
			y = append(y, 5)
		}
	}
	var tr Tree
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{1}); math.Abs(got-1) > 1e-9 {
		t.Errorf("left region = %v", got)
	}
	if got := tr.Predict([]float64{5}); math.Abs(got-5) > 1e-9 {
		t.Errorf("right region = %v", got)
	}
	if tr.Depth() < 2 || tr.Leaves() < 2 {
		t.Errorf("depth=%d leaves=%d", tr.Depth(), tr.Leaves())
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := smoothData(rng, 200)
	tr := Tree{MaxDepth: 3}
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 3 {
		t.Errorf("depth = %d > 3", tr.Depth())
	}
}

func TestTreeConstantTarget(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	y := []float64{7, 7, 7, 7, 7, 7}
	var tr Tree
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{2.2}); got != 7 {
		t.Errorf("constant prediction = %v", got)
	}
	if tr.Leaves() != 1 {
		t.Errorf("constant target grew %d leaves", tr.Leaves())
	}
}

func TestSVRFitsSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := smoothData(rng, 120)
	var s SVR
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := smoothData(rng, 40)
	m := Evaluate(yt, PredictBatch(&s, xt), 2)
	if m.RMSE > 0.15 {
		t.Errorf("SVR RMSE = %v", m.RMSE)
	}
	if sv := s.SupportVectors(); sv == 0 || sv > 120 {
		t.Errorf("support vectors = %d", sv)
	}
}

func TestSVREpsilonTubeSparsity(t *testing.T) {
	// With a huge tube every residual fits inside it → all β are 0.
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0.0, 0.01, -0.01, 0.0}
	s := SVR{Epsilon: 10}
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if s.SupportVectors() != 0 {
		t.Errorf("support vectors = %d, want 0", s.SupportVectors())
	}
	// Prediction degenerates to the target mean.
	if got := s.Predict([]float64{1.5}); math.Abs(got-0.0) > 0.02 {
		t.Errorf("degenerate prediction = %v", got)
	}
}

func TestAllModelsRejectBadInput(t *testing.T) {
	for _, m := range allModels() {
		if err := m.Fit(nil, nil); !errors.Is(err, ErrEmptyTrainingSet) {
			t.Errorf("%s: empty fit err = %v", m.Name(), err)
		}
		if err := m.Fit([][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrBadShape) {
			t.Errorf("%s: mismatched fit err = %v", m.Name(), err)
		}
		if err := m.Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}); !errors.Is(err, ErrBadShape) {
			t.Errorf("%s: ragged fit err = %v", m.Name(), err)
		}
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	for _, m := range allModels() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", m.Name())
				}
			}()
			m.Predict([]float64{1})
		}()
	}
}

func TestModelNames(t *testing.T) {
	want := map[string]bool{"LM": true, "GPR": true, "RTREE": true, "RSVM": true}
	for _, m := range allModels() {
		if !want[m.Name()] {
			t.Errorf("unexpected model name %q", m.Name())
		}
	}
}

// GPR should beat the linear model on a nonlinear task — the ordering
// the paper reports (Sec. III-C).
func TestGPRBeatsLinearOnNonlinearData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := smoothData(rng, 100)
	xt, yt := smoothData(rng, 50)
	var g GPR
	var lm Linear
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := lm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	mg := Evaluate(yt, PredictBatch(&g, xt), 2)
	ml := Evaluate(yt, PredictBatch(&lm, xt), 2)
	if !mg.Better(ml) {
		t.Errorf("GPR (%v) not better than LM (%v)", mg, ml)
	}
}

func TestMetrics(t *testing.T) {
	actual := []float64{1, 2, 3, 4}
	perfect := Evaluate(actual, actual, 1)
	if perfect.MSE != 0 || perfect.RMSE != 0 || perfect.MAE != 0 {
		t.Errorf("perfect metrics = %v", perfect)
	}
	if math.Abs(perfect.R2-1) > 1e-12 || math.Abs(perfect.R2Adj-1) > 1e-12 {
		t.Errorf("perfect R2 = %v / %v", perfect.R2, perfect.R2Adj)
	}
	pred := []float64{1.5, 2.5, 2.5, 3.5}
	m := Evaluate(actual, pred, 1)
	if math.Abs(m.MSE-0.25) > 1e-12 || math.Abs(m.MAE-0.5) > 1e-12 || math.Abs(m.RMSE-0.5) > 1e-12 {
		t.Errorf("metrics = %v", m)
	}
	// R² = 1 − SSE/SST = 1 − 1/5 = 0.8
	if math.Abs(m.R2-0.8) > 1e-12 {
		t.Errorf("R2 = %v", m.R2)
	}
	// adjusted with n=4, p=1: 1 − 0.2·3/2 = 0.7
	if math.Abs(m.R2Adj-0.7) > 1e-12 {
		t.Errorf("R2Adj = %v", m.R2Adj)
	}
}

func TestMetricsConstantActuals(t *testing.T) {
	m := Evaluate([]float64{3, 3, 3}, []float64{3, 3, 3}, 1)
	if !math.IsNaN(m.R2) {
		t.Errorf("R2 on zero-variance targets = %v, want NaN", m.R2)
	}
}

func TestMetricsBetterOrdering(t *testing.T) {
	a := Metrics{MSE: 1, RMSE: 1, MAE: 1, R2: 0.5}
	b := Metrics{MSE: 2, RMSE: 1.4, MAE: 1.2, R2: 0.3}
	if !a.Better(b) || b.Better(a) {
		t.Error("Better ordering wrong")
	}
	c := Metrics{MSE: 1, RMSE: 1, MAE: 1, R2: 0.6}
	if !c.Better(a) {
		t.Error("R2 tiebreak wrong")
	}
	if a.String() == "" {
		t.Error("empty metrics string")
	}
}

func TestMultiOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([][]float64, 50)
	y := make([][]float64, 50)
	for i := range x {
		v := rng.Float64() * 4
		x[i] = []float64{v}
		y[i] = []float64{2 * v, -v + 1}
	}
	mo := NewMultiOutput(func() Regressor { return &Linear{} })
	if err := mo.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if mo.Outputs() != 2 {
		t.Fatalf("Outputs = %d", mo.Outputs())
	}
	out := mo.Predict([]float64{2})
	if math.Abs(out[0]-4) > 1e-8 || math.Abs(out[1]+1) > 1e-8 {
		t.Errorf("Predict = %v", out)
	}
	if mo.Name() != "LM (multi-output)" {
		t.Errorf("Name = %q", mo.Name())
	}
	if mo.Model(0).Name() != "LM" {
		t.Error("Model accessor wrong")
	}
}

func TestMultiOutputValidation(t *testing.T) {
	mo := NewMultiOutput(func() Regressor { return &Linear{} })
	if err := mo.Fit(nil, nil); !errors.Is(err, ErrEmptyTrainingSet) {
		t.Errorf("empty err = %v", err)
	}
	if err := mo.Fit([][]float64{{1}}, [][]float64{{1}, {2}}); !errors.Is(err, ErrBadShape) {
		t.Errorf("mismatch err = %v", err)
	}
	if err := mo.Fit([][]float64{{1}, {2}}, [][]float64{{1}, {1, 2}}); !errors.Is(err, ErrBadShape) {
		t.Errorf("ragged err = %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Predict before Fit should panic")
			}
		}()
		mo.Predict([]float64{1})
	}()
}

func TestStandardizer(t *testing.T) {
	x := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s := NewStandardizer(x)
	ts := s.TransformAll(x)
	// First column standardized; constant second column untouched (scale 1).
	if math.Abs(ts[0][0]+1.224744871) > 1e-6 {
		t.Errorf("standardized = %v", ts[0][0])
	}
	if ts[0][1] != 0 {
		t.Errorf("constant column transform = %v", ts[0][1])
	}
	back := s.Inverse(ts[1])
	if math.Abs(back[0]-3) > 1e-12 || math.Abs(back[1]-10) > 1e-12 {
		t.Errorf("Inverse = %v", back)
	}
}

// Property: tree predictions are always within the training target range.
func TestTreePredictionWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		x := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range x {
			x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			y[i] = rng.NormFloat64()
			lo = math.Min(lo, y[i])
			hi = math.Max(hi, y[i])
		}
		var tr Tree
		if err := tr.Fit(x, y); err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			p := tr.Predict([]float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: linear regression residuals are orthogonal to features.
func TestLinearResidualOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y := linearData(rng, 40, 0.5)
		var lm Linear
		if err := lm.Fit(x, y); err != nil {
			return false
		}
		for j := 0; j < 2; j++ {
			s := 0.0
			for i := range x {
				s += (y[i] - lm.Predict(x[i])) * x[i][j]
			}
			if math.Abs(s) > 1e-6*float64(len(x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// With the additive linear kernel GPR should match the linear model on
// purely linear data (instead of reverting to the prior mean off the
// training range).
func TestGPRLinearKernelExtrapolates(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	x, y := linearData(rng, 60, 0.01)
	g := GPR{LinearVar: -1} // grid-select the linear kernel term
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Points outside the [-2, 2] training box.
	far := []float64{3.5, -3.5}
	want := 2*far[0] - 3*far[1] + 1
	if got := g.Predict(far); math.Abs(got-want) > 0.8 {
		t.Errorf("GPR extrapolation = %v, want ~%v", got, want)
	}
}

func TestGPRLinearVarPinnedAndDisabled(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 1, 2, 3}
	pinned := GPR{LinearVar: 1}
	if err := pinned.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	disabled := GPR{} // default: RBF only
	if err := disabled.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// The linear-kernel model should extrapolate the line much better.
	pFar := pinned.Predict([]float64{6})
	dFar := disabled.Predict([]float64{6})
	if math.Abs(pFar-6) >= math.Abs(dFar-6) {
		t.Errorf("linear kernel (%v) not better than RBF-only (%v) at x=6", pFar, dFar)
	}
}
