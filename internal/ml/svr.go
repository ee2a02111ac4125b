package ml

import (
	"math"
)

// SVR is ε-insensitive support-vector regression with an RBF kernel,
// the paper's "RSVM" model. The bias term is absorbed into the kernel
// (k' = k + 1, a standard reformulation that removes the dual equality
// constraint), and the resulting box-constrained piecewise-quadratic
// dual
//
//	min_β ½ βᵀK'β − yᵀβ + ε‖β‖₁   s.t. |βᵢ| ≤ C
//
// is solved by cyclic coordinate descent with an exact soft-threshold
// update per coordinate. Features and targets are standardized
// internally.
type SVR struct {
	xTrain [][]float64
	beta   []float64
	xScale *Standardizer
	yMean  float64
	yStd   float64
	fitted bool
}

const (
	svrC           = 10   // box constraint
	svrEpsilon     = 0.05 // insensitive-tube half width
	svrLengthScale = 1    // RBF length scale in standardized space
	svrMaxSweeps   = 200  // coordinate-descent sweeps
	svrTol         = 1e-6 // max coefficient change to stop
)

// Name implements Regressor.
func (s *SVR) Name() string { return "RSVM" }

// SupportVectors returns the number of training points with nonzero
// dual coefficients. It panics before Fit.
func (s *SVR) SupportVectors() int {
	if !s.fitted {
		panic("ml: SVR.SupportVectors before Fit")
	}
	n := 0
	for _, b := range s.beta {
		if b != 0 {
			n++
		}
	}
	return n
}

// Fit implements Regressor.
func (s *SVR) Fit(x [][]float64, y []float64) error {
	if _, err := checkTrainingData(x, y); err != nil {
		return err
	}
	s.xScale = NewStandardizer(x)
	xs := s.xScale.TransformAll(x)
	s.yMean, s.yStd = meanStd(y)
	if s.yStd == 0 {
		s.yStd = 1
	}
	ys := make([]float64, len(y))
	for i := range y {
		ys[i] = (y[i] - s.yMean) / s.yStd
	}

	n := len(xs)
	// Bias-augmented kernel matrix K' = K + 1.
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := rbf(xs[i], xs[j], svrLengthScale, 1) + 1
			k[i][j] = v
			k[j][i] = v
		}
	}

	beta := make([]float64, n)
	// f[i] = Σ_j K'ij β_j, maintained incrementally.
	f := make([]float64, n)
	for sweep := 0; sweep < svrMaxSweeps; sweep++ {
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			// Residual excluding i's own contribution.
			r := ys[i] - (f[i] - k[i][i]*beta[i])
			// Exact minimizer of ½K'ii b² − r·b + ε|b| over [−C, C].
			var b float64
			switch {
			case r > svrEpsilon:
				b = (r - svrEpsilon) / k[i][i]
			case r < -svrEpsilon:
				b = (r + svrEpsilon) / k[i][i]
			default:
				b = 0
			}
			if b > svrC {
				b = svrC
			} else if b < -svrC {
				b = -svrC
			}
			if d := b - beta[i]; d != 0 {
				for j := 0; j < n; j++ {
					f[j] += d * k[i][j]
				}
				if ad := math.Abs(d); ad > maxDelta {
					maxDelta = ad
				}
				beta[i] = b
			}
		}
		if maxDelta < svrTol {
			break
		}
	}

	s.xTrain = xs
	s.beta = beta
	s.fitted = true
	return nil
}

// Predict implements Regressor.
func (s *SVR) Predict(x []float64) float64 {
	if !s.fitted {
		panic("ml: SVR.Predict before Fit")
	}
	xs := s.xScale.Transform(x)
	out := 0.0
	for i, xt := range s.xTrain {
		if s.beta[i] == 0 {
			continue
		}
		out += s.beta[i] * (rbf(xs, xt, svrLengthScale, 1) + 1)
	}
	return out*s.yStd + s.yMean
}
