package ml

import (
	"fmt"
	"math"

	"qaoaml/internal/linalg"
)

// GPR is Gaussian-process regression with a squared-exponential (RBF)
// kernel k(a,b) = σ_f²·exp(−‖a−b‖²/(2ℓ²)) plus observation noise σ_n².
// This is the paper's best-performing predictor model. Features and
// targets are standardized internally, and the hyperparameters maximize
// the log marginal likelihood over a small grid (gprEllGrid, …).
type GPR struct {
	// LinearVar adds a dot-product kernel term σ_l²·⟨a, b⟩ whose variance
	// is selected from gprLinearGrid with the others; off, the kernel is
	// RBF only. The linear term lets the posterior mean extrapolate
	// linear trends instead of reverting to the prior mean — better on
	// in-distribution test points, but brittle under feature shift, so
	// it is opt-in (see EXPERIMENTS.md on the two-level flow).
	LinearVar bool

	xTrain [][]float64
	alpha  linalg.Vector
	xScale *Standardizer
	yMean  float64
	yStd   float64
	ell    float64 // chosen length scale (in standardized space)
	sf2    float64 // chosen signal variance
	sn2    float64 // chosen noise variance
	sl2    float64 // chosen linear-kernel variance
	logML  float64
	fitted bool
}

// The hyperparameter grid (standardized space), walked in this order.
var (
	gprEllGrid    = []float64{0.3, 0.5, 1, 2, 4}      // ℓ
	gprSf2Grid    = []float64{0.5, 1, 2}              // σ_f²
	gprSn2Grid    = []float64{1e-4, 1e-3, 1e-2, 1e-1} // σ_n²
	gprLinearGrid = []float64{0, 0.5, 2}              // σ_l², with LinearVar
)

// Name implements Regressor.
func (g *GPR) Name() string { return "GPR" }

// Fit implements Regressor.
func (g *GPR) Fit(x [][]float64, y []float64) error {
	fits, errs := g.fitColumns(x, [][]float64{y})
	if errs[0] != nil {
		return errs[0]
	}
	*g = *fits[0]
	return nil
}

// fitColumns fits one GPR with g's settings to each target column. The
// kernel matrix and its Cholesky factor depend on the features and the
// grid point, not on the targets, so the grid is walked once: K is built
// once per (ℓ, σ_f², σ_l²) and K + σ_n²I factored once per σ_n², then
// every column takes its two triangular solves and its log marginal
// likelihood there and keeps its own best — the first strict maximum in
// grid order, as a one-column walk would. The fits share one
// Standardizer and one set of standardized training points. fits[j] is
// nil exactly where errs[j] is not.
func (g *GPR) fitColumns(x [][]float64, cols [][]float64) (fits []*GPR, errs []error) {
	fits, errs = make([]*GPR, len(cols)), make([]error, len(cols))
	var live []*GPR
	var ys []linalg.Vector
	for j, y := range cols {
		if _, err := checkTrainingData(x, y); err != nil {
			errs[j] = err
			continue
		}
		// Standardize targets. A mean or spread past the float range
		// would make every log marginal likelihood NaN.
		mean, std := meanStd(y)
		if math.IsInf(mean, 0) || math.IsNaN(mean) || math.IsInf(std, 0) || math.IsNaN(std) {
			errs[j] = fmt.Errorf("%w: target mean %v and std %v are not finite", ErrBadShape, mean, std)
			continue
		}
		if std == 0 {
			std = 1
		}
		ysj := make(linalg.Vector, len(y))
		for i := range y {
			ysj[i] = (y[i] - mean) / std
		}
		fits[j] = &GPR{LinearVar: g.LinearVar, yMean: mean, yStd: std, logML: math.Inf(-1)}
		live, ys = append(live, fits[j]), append(ys, ysj)
	}
	if len(live) == 0 {
		return fits, errs
	}
	xScale := NewStandardizer(x)
	xs := xScale.TransformAll(x)
	for _, f := range live {
		f.xTrain, f.xScale = xs, xScale // shared, read-only
	}
	g.walkGrid(xs, live, ys)
	for j, f := range fits {
		switch {
		case f == nil:
		case f.alpha == nil: // no grid point factored
			fits[j], errs[j] = nil, linalg.ErrNotPositiveDefinite
		default:
			f.fitted = true
		}
	}
	return fits, errs
}

// walkGrid walks the hyperparameter grid over the standardized features
// xs once, and leaves in each fits[k] the best grid point for the
// standardized targets ys[k]. Each factor lives only while its grid
// point's columns solve against it.
func (g *GPR) walkGrid(xs [][]float64, fits []*GPR, ys []linalg.Vector) {
	sl2s := gprLinearGrid[:1] // pure RBF
	if g.LinearVar {
		sl2s = gprLinearGrid
	}
	n := len(xs)
	norm := float64(n) / 2 * math.Log(2*math.Pi)
	kn := linalg.NewMatrix(n, n)
	for _, ell := range gprEllGrid {
		for _, sf2 := range gprSf2Grid {
			for _, sl2 := range sl2s {
				k := g.kernelMatrix(xs, ell, sf2, sl2)
				for _, sn2 := range gprSn2Grid {
					copy(kn.Data, k.Data)
					ch, err := linalg.Cholesky(kn.AddToDiag(sn2))
					if err != nil {
						continue
					}
					logDet := ch.LogDet()
					for c, f := range fits {
						alpha := ch.Solve(ys[c])
						ml := -0.5*ys[c].Dot(alpha) - 0.5*logDet - norm
						if ml > f.logML {
							f.alpha, f.logML = alpha, ml
							f.ell, f.sf2, f.sn2, f.sl2 = ell, sf2, sn2, sl2
						}
					}
				}
			}
		}
	}
}

// Predict implements Regressor: the posterior mean Σ k(x, xᵢ)·αᵢ.
func (g *GPR) Predict(x []float64) float64 {
	if !g.fitted {
		panic("ml: GPR.Predict before Fit")
	}
	xs := g.xScale.Transform(x)
	mu := 0.0
	for i, xt := range g.xTrain {
		mu += kernel(xs, xt, g.ell, g.sf2, g.sl2) * g.alpha[i]
	}
	return mu*g.yStd + g.yMean
}

func (g *GPR) kernelMatrix(xs [][]float64, ell, sf2, sl2 float64) *linalg.Matrix {
	n := len(xs)
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		k.Set(i, i, kernel(xs[i], xs[i], ell, sf2, sl2))
		for j := i + 1; j < n; j++ {
			v := kernel(xs[i], xs[j], ell, sf2, sl2)
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	return k
}

// kernel is the RBF kernel plus an optional dot-product term.
func kernel(a, b []float64, ell, sf2, sl2 float64) float64 {
	v := rbf(a, b, ell, sf2)
	if sl2 > 0 {
		dot := 0.0
		for i := range a {
			dot += a[i] * b[i]
		}
		v += sl2 * dot
	}
	return v
}

// rbf is the squared-exponential kernel.
func rbf(a, b []float64, ell, sf2 float64) float64 {
	d2 := 0.0
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return sf2 * math.Exp(-d2/(2*ell*ell))
}

// Standardizer centers and scales features to zero mean and unit
// variance (constant features keep scale 1).
type Standardizer struct {
	Mean, Std []float64
}

// NewStandardizer computes per-feature statistics from rows x.
func NewStandardizer(x [][]float64) *Standardizer {
	dim := len(x[0])
	s := &Standardizer{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for j := 0; j < dim; j++ {
		col := make([]float64, len(x))
		for i := range x {
			col[i] = x[i][j]
		}
		m, sd := meanStd(col)
		if sd == 0 {
			sd = 1
		}
		s.Mean[j], s.Std[j] = m, sd
	}
	return s
}

// Transform returns the standardized copy of one feature vector. It
// panics unless x has one value per feature.
func (s *Standardizer) Transform(x []float64) []float64 {
	if len(x) != len(s.Mean) {
		panic("ml: Standardizer.Transform feature dim mismatch")
	}
	out := make([]float64, len(x))
	for j := range x {
		out[j] = (x[j] - s.Mean[j]) / s.Std[j]
	}
	return out
}

// TransformAll standardizes every row.
func (s *Standardizer) TransformAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = s.Transform(row)
	}
	return out
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	for _, v := range xs {
		d := v - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
