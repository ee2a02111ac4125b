package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"qaoaml/internal/linalg"
)

// fitBank trains one of factory's models per column of y: FitBanks with
// one bank, the tests' way to fit a bank alone.
func fitBank(factory func() Regressor, x [][]float64, y [][]float64) (*MultiOutput, error) {
	banks, _, err := FitBanks(factory, x, [][][]float64{y})
	if err != nil {
		return nil, err
	}
	return banks[0], nil
}

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

// predictAll applies r.Predict to every row.
func predictAll(r Regressor, x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = r.Predict(row)
	}
	return out
}

// treeShape returns the height (a single leaf has height 1) and the leaf
// count of the tree below n.
func treeShape(n *treeNode) (depth, leaves int) {
	if n.left == nil {
		return 1, 1
	}
	ld, ll := treeShape(n.left)
	rd, rl := treeShape(n.right)
	return max(ld, rd) + 1, ll + rl
}

// supportVectors returns the number of training points with a nonzero
// dual coefficient in a fitted SVR.
func supportVectors(s *SVR) int {
	n := 0
	for _, b := range s.beta {
		if b != 0 {
			n++
		}
	}
	return n
}

func TestGPRInterpolatesSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := smoothData(rng, 80)
	var g GPR
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	xt, yt := smoothData(rng, 40)
	pred := predictAll(&g, xt)
	m := Evaluate(yt, pred, 2)
	if m.RMSE > 0.1 {
		t.Errorf("GPR RMSE = %v (metrics: %v)", m.RMSE, m)
	}
}

// The hyperparameters are fixed to the grid: Fit selects grid points.
func TestGPRFixedHyperparameters(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []float64{1, 2, 3}
	var g GPR
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(gprEllGrid, g.ell) || !slices.Contains(gprSf2Grid, g.sf2) || !slices.Contains(gprSn2Grid, g.sn2) {
		t.Errorf("hyperparameters %v %v %v are not grid points", g.ell, g.sf2, g.sn2)
	}
	if math.IsInf(g.logML, 0) || math.IsNaN(g.logML) {
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
	if depth, leaves := treeShape(tr.root); depth < 2 || leaves < 2 {
		t.Errorf("depth=%d leaves=%d", depth, leaves)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := smoothData(rng, 200)
	var tr Tree
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if depth, _ := treeShape(tr.root); depth > treeMaxDepth {
		t.Errorf("depth = %d > %d", depth, treeMaxDepth)
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
	if _, leaves := treeShape(tr.root); leaves != 1 {
		t.Errorf("constant target grew %d leaves", leaves)
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
	m := Evaluate(yt, predictAll(&s, xt), 2)
	if m.RMSE > 0.15 {
		t.Errorf("SVR RMSE = %v", m.RMSE)
	}
	if sv := supportVectors(&s); sv == 0 || sv > 120 {
		t.Errorf("support vectors = %d", sv)
	}
}

func TestSVREpsilonTubeSparsity(t *testing.T) {
	// Constant targets standardize to 0, inside the tube → all β are 0.
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0.25, 0.25, 0.25, 0.25}
	var s SVR
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if sv := supportVectors(&s); sv != 0 {
		t.Errorf("support vectors = %d, want 0", sv)
	}
	// Prediction degenerates to the target mean.
	if got := s.Predict([]float64{1.5}); got != 0.25 {
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
	mg := Evaluate(yt, predictAll(&g, xt), 2)
	ml := Evaluate(yt, predictAll(&lm, xt), 2)
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
	mo, err := fitBank(func() Regressor { return &Linear{} }, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if mo.Outputs() != 2 {
		t.Fatalf("Outputs = %d", mo.Outputs())
	}
	out := mo.Predict([]float64{2})
	if math.Abs(out[0]-4) > 1e-8 || math.Abs(out[1]+1) > 1e-8 {
		t.Errorf("Predict = %v", out)
	}
	if mo.models[0].Name() != "LM" {
		t.Error("output 0 is not a linear model")
	}
}

func TestMultiOutputValidation(t *testing.T) {
	lm := func() Regressor { return &Linear{} }
	if _, err := fitBank(lm, nil, nil); !errors.Is(err, ErrEmptyTrainingSet) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := fitBank(lm, [][]float64{{1}}, [][]float64{{1}, {2}}); !errors.Is(err, ErrBadShape) {
		t.Errorf("mismatch err = %v", err)
	}
	if _, err := fitBank(lm, [][]float64{{1}, {2}}, [][]float64{{1}, {1, 2}}); !errors.Is(err, ErrBadShape) {
		t.Errorf("ragged err = %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Predict before Fit should panic")
			}
		}()
		(&MultiOutput{}).Predict([]float64{1})
	}()
}

// Every family refuses a query of the wrong width rather than scoring
// it: one feature short or one too many panics with the dim-mismatch
// message.
func TestPredictRejectsWrongWidth(t *testing.T) {
	x, y := linearData(rand.New(rand.NewSource(8)), 5, 0.1)
	for _, m := range allModels() {
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for _, q := range [][]float64{{0.5}, {0.5, -1, 2}} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "feature dim mismatch") {
						t.Errorf("%s: Predict of %d features: panic %v, want a feature dim mismatch", m.Name(), len(q), r)
					}
				}()
				m.Predict(q)
			}()
		}
	}
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
	g := GPR{LinearVar: true}
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

// LinearVar on grid-selects σ_l² > 0 on a line; off (disabled) keeps it 0.
func TestGPRLinearVarPinnedAndDisabled(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 1, 2, 3}
	on := GPR{LinearVar: true}
	if err := on.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	off := GPR{} // default: RBF only
	if err := off.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if on.sl2 == 0 || off.sl2 != 0 {
		t.Errorf("σ_l² = %v on, %v off; want the line to select the linear term", on.sl2, off.sl2)
	}
	// The linear-kernel model should extrapolate the line much better.
	pFar := on.Predict([]float64{6})
	dFar := off.Predict([]float64{6})
	if math.Abs(pFar-6) >= math.Abs(dFar-6) {
		t.Errorf("linear kernel (%v) not better than RBF-only (%v) at x=6", pFar, dFar)
	}
}

// fitColumnOracle is GPR.Fit as it was before a bank walked its grid
// once for all columns: one column, K built and factored per grid
// point, Solve as its two triangular solves. fitColumns must reproduce
// what it selects and stores bit for bit, and fail where it fails.
func fitColumnOracle(g *GPR, x [][]float64, y []float64) error {
	if _, err := checkTrainingData(x, y); err != nil {
		return err
	}
	g.xScale = NewStandardizer(x)
	xs := g.xScale.TransformAll(x)

	g.yMean, g.yStd = meanStd(y)
	if g.yStd == 0 {
		g.yStd = 1
	}
	ys := make(linalg.Vector, len(y))
	for i := range y {
		ys[i] = (y[i] - g.yMean) / g.yStd
	}

	ells := []float64{0.3, 0.5, 1, 2, 4}
	sf2s := []float64{0.5, 1, 2}
	sn2s := []float64{1e-4, 1e-3, 1e-2, 1e-1}
	sl2s := []float64{0}
	if g.LinearVar {
		sl2s = []float64{0, 0.5, 2}
	}

	bestML := math.Inf(-1)
	var bestAlpha linalg.Vector
	var bestEll, bestSf2, bestSn2, bestSl2 float64
	for _, ell := range ells {
		for _, sf2 := range sf2s {
			for _, sl2 := range sl2s {
				k := g.kernelMatrix(xs, ell, sf2, sl2)
				for _, sn2 := range sn2s {
					kn := linalg.NewMatrix(k.Rows, k.Cols)
					copy(kn.Data, k.Data)
					kn.AddToDiag(sn2)
					ch, err := linalg.Cholesky(kn)
					if err != nil {
						continue
					}
					alpha := linalg.SolveUpperTriangular(ch.L.T(), linalg.SolveLowerTriangular(ch.L, ys))
					ml := -0.5*ys.Dot(alpha) - 0.5*ch.LogDet() - float64(len(ys))/2*math.Log(2*math.Pi)
					if ml > bestML {
						bestML, bestAlpha = ml, alpha
						bestEll, bestSf2, bestSn2, bestSl2 = ell, sf2, sn2, sl2
					}
				}
			}
		}
	}
	if bestAlpha == nil {
		return linalg.ErrNotPositiveDefinite
	}
	g.xTrain = xs
	g.alpha = bestAlpha
	g.ell, g.sf2, g.sn2, g.sl2 = bestEll, bestSf2, bestSn2, bestSl2
	g.logML = bestML
	g.fitted = true
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// gprDiff names the first fitted field where got and want differ in
// any bit, or returns "".
func gprDiff(got, want *GPR) string {
	switch {
	case !sameBits([]float64{got.ell, got.sf2, got.sn2, got.sl2}, []float64{want.ell, want.sf2, want.sn2, want.sl2}):
		return fmt.Sprintf("hyperparameters (ℓ, σ_f², σ_n², σ_l²) %v %v %v %v, want %v %v %v %v",
			got.ell, got.sf2, got.sn2, got.sl2, want.ell, want.sf2, want.sn2, want.sl2)
	case !sameBits([]float64{got.logML}, []float64{want.logML}):
		return fmt.Sprintf("log-ML %v, want %v", got.logML, want.logML)
	case !sameBits(got.alpha, want.alpha):
		return "α"
	case !sameBits([]float64{got.yMean, got.yStd}, []float64{want.yMean, want.yStd}):
		return "target standardization"
	case !sameBits(append(got.xScale.Mean, got.xScale.Std...), append(want.xScale.Mean, want.xScale.Std...)):
		return "feature standardization"
	case len(got.xTrain) != len(want.xTrain):
		return "training points"
	}
	for i := range got.xTrain {
		if !sameBits(got.xTrain[i], want.xTrain[i]) {
			return fmt.Sprintf("training point %d", i)
		}
	}
	return ""
}

// oracleColumns are targets over smoothData's features: smooth, linear,
// constant (yStd = 0), noise and a coarse step, so the columns pick
// different grid points and some share one.
func oracleColumns() ([][]float64, [][]float64) {
	rng := rand.New(rand.NewSource(41))
	x, smooth := smoothData(rng, 48)
	cols := [][]float64{smooth, make([]float64, 48), make([]float64, 48), make([]float64, 48), make([]float64, 48), smooth}
	for i, row := range x {
		cols[1][i] = 2*row[0] - row[1] + 0.5
		cols[2][i] = 3.25
		cols[3][i] = rng.NormFloat64()
		cols[4][i] = math.Floor(row[0])
	}
	return x, cols
}

// Every column of a bank selects the hyperparameters and stores the α,
// L and log-ML bits a one-column fit of it would, under each way of
// choosing the grid, whether fitColumns is called or MultiOutput routes
// a GPR factory through it. Constant features make K the same at every
// ℓ, so the log-MLs tie and only the first of them may win.
func TestFitColumnsMatchesOneColumnOracle(t *testing.T) {
	x, cols := oracleColumns()
	rows := make([][]float64, len(x))
	flat := make([][]float64, len(x))
	for i := range rows {
		for _, col := range cols {
			rows[i] = append(rows[i], col[i])
		}
		flat[i] = []float64{1, -2}
	}
	settings := map[string]GPR{
		"default grid": {},
		"LinearVar":    {LinearVar: true},
	}
	for features, x := range map[string][][]float64{"features": x, "constant features": flat} {
		for name, s := range settings {
			name := features + ", " + name
			fits, errs := s.fitColumns(x, cols)
			bank, err := fitBank(func() Regressor { g := s; return &g }, x, rows)
			if err != nil {
				t.Fatalf("%s: fitBank: %v", name, err)
			}
			picks := map[[4]float64]bool{}
			for j, col := range cols {
				want := s
				if err := fitColumnOracle(&want, x, col); err != nil || errs[j] != nil {
					t.Fatalf("%s column %d: err %v, oracle %v", name, j, errs[j], err)
				}
				if d := gprDiff(fits[j], &want); d != "" {
					t.Errorf("%s column %d: fitColumns differs from the oracle in %s", name, j, d)
				}
				if d := gprDiff(bank.models[j].(*GPR), &want); d != "" {
					t.Errorf("%s column %d: MultiOutput differs from the oracle in %s", name, j, d)
				}
				picks[[4]float64{want.ell, want.sf2, want.sn2, want.sl2}] = true
			}
			if name == "features, default grid" && len(picks) < 2 {
				t.Errorf("%s: every column picked one grid point; the columns test nothing", name)
			}
		}
	}
}

// A column that fails fails alone and as the oracle does — same text —
// except a target whose mean or spread overflows: the oracle blamed the
// matrix, fitColumns names the targets.
func TestFitColumnsFailsAsOneColumnOracle(t *testing.T) {
	x, cols := oracleColumns()
	over := make([]float64, len(x))
	for i := range over {
		over[i] = 1e308
	}
	short := cols[0][:len(x)-1]
	nanX := cloneRows(x)
	nanX[3][1] = math.NaN()

	var g GPR
	bankCols := [][]float64{cols[0], over, short, cols[1]}
	fits, errs := g.fitColumns(x, bankCols)
	for _, j := range []int{0, 3} {
		want := g
		if err := fitColumnOracle(&want, x, bankCols[j]); err != nil || errs[j] != nil {
			t.Fatalf("column %d: err %v, oracle %v", j, errs[j], err)
		}
		if d := gprDiff(fits[j], &want); d != "" {
			t.Errorf("column %d beside failing columns differs from the oracle in %s", j, d)
		}
	}
	want := g
	if err := fitColumnOracle(&want, x, short); errs[2] == nil || err == nil || errs[2].Error() != err.Error() || fits[2] != nil {
		t.Errorf("short column: err %v, oracle %v", errs[2], err)
	}
	want = g
	if err := fitColumnOracle(&want, x, over); !errors.Is(err, linalg.ErrNotPositiveDefinite) {
		t.Errorf("overflowing column: oracle err %v, want the matrix blamed", err)
	}
	if !errors.Is(errs[1], ErrBadShape) || !strings.Contains(errs[1].Error(), "target mean +Inf") || fits[1] != nil {
		t.Errorf("overflowing column: err %v, want ErrBadShape naming the target mean", errs[1])
	}

	// Features that no grid point can factor fail every column.
	fits, errs = g.fitColumns(nanX, cols[:2])
	for j, col := range cols[:2] {
		want := g
		err := fitColumnOracle(&want, nanX, col)
		if err == nil || errs[j] == nil || errs[j].Error() != err.Error() || fits[j] != nil {
			t.Errorf("NaN feature, column %d: err %v, oracle %v", j, errs[j], err)
		}
	}
}

// Targets whose mean or spread overflows fail as ErrBadShape naming
// them (the one-column oracle blamed the matrix), and a bank names the
// output.
func TestGPRRejectsOverflowingTargets(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	var g GPR
	err := g.Fit(x, []float64{1e308, 1e308, -1e308, 1})
	if !errors.Is(err, ErrBadShape) || !strings.Contains(err.Error(), "target mean") {
		t.Errorf("Fit err = %v, want ErrBadShape naming the target mean", err)
	}
	if g.fitted {
		t.Error("failed Fit left the model fitted")
	}
	gpr := func() Regressor { return &GPR{} }
	_, err = fitBank(gpr, x, [][]float64{{0, 1e308}, {1, 1e308}, {2, -1e308}, {3, 1}})
	if !errors.Is(err, ErrBadShape) || !strings.Contains(err.Error(), "fitting output 1:") {
		t.Errorf("MultiOutput err = %v, want ErrBadShape on output 1", err)
	}
	_, err = fitBank(gpr, x, [][]float64{{0, 1e308}, {1, 0}, {2, -1e308}, {3, 1}}) // mean finite, spread not
	if !errors.Is(err, ErrBadShape) || !strings.Contains(err.Error(), "std +Inf") {
		t.Errorf("MultiOutput err = %v, want ErrBadShape naming the std", err)
	}
}

// FitBanks fits every bank as fitBank fits it alone, bit for bit,
// though a GPR factory walks the grid once for every column of every
// bank. A failing bank is reported by index, with Fit's error.
func TestFitBanksMatchesBankByBank(t *testing.T) {
	x, cols := oracleColumns()
	rows := make([][]float64, len(x))
	halved := make([][]float64, len(x)) // a bank of other targets
	for i := range rows {
		for _, col := range cols {
			rows[i] = append(rows[i], col[i])
		}
		halved[i] = []float64{cols[0][i] / 2, cols[3][i]}
	}
	ys := [][][]float64{rows, halved, rows}
	factory := func() Regressor { return &GPR{} }
	banks, b, err := FitBanks(factory, x, ys)
	if err != nil {
		t.Fatalf("bank %d: %v", b, err)
	}
	for b, bank := range banks {
		alone, err := fitBank(factory, x, ys[b])
		if err != nil {
			t.Fatal(err)
		}
		if bank.Outputs() != alone.Outputs() || bank.Inputs() != alone.Inputs() {
			t.Fatalf("bank %d: %d outputs of %d inputs, alone %d of %d", b, bank.Outputs(), bank.Inputs(), alone.Outputs(), alone.Inputs())
		}
		for j := range alone.models {
			if d := gprDiff(bank.models[j].(*GPR), alone.models[j].(*GPR)); d != "" {
				t.Errorf("bank %d column %d: differs from the bank fit alone in %s", b, j, d)
			}
		}
	}

	over := cloneRows(rows)
	for i := range over[1:] {
		over[1+i][1] = 1e308 // {…, 1e308, 1e308, …}: the sum overflows
	}
	ys[1] = over
	banks, b, err = FitBanks(factory, x, ys)
	if b != 1 || banks != nil || !errors.Is(err, ErrBadShape) || !strings.Contains(err.Error(), "output 1") {
		t.Errorf("bank %d: %v, want bank 1 and output 1 blamed", b, err)
	}
}
