package ml

import (
	"qaoaml/internal/linalg"
)

// Linear is linear regression with an intercept: the paper's "LM"
// model. It solves ridge-regularized normal equations by Cholesky
// rather than plain least squares because every depth bank's design is
// rank deficient: the bank's pt feature is constant, a multiple of the
// intercept column.
type Linear struct {
	Coef      []float64 // feature weights, length = feature dim
	Intercept float64
	fitted    bool
}

// Name implements Regressor.
func (l *Linear) Name() string { return "LM" }

// Fit implements Regressor: it solves (AᵀA + 1e-8·I)·w = Aᵀy for the
// design matrix A = [1, x].
func (l *Linear) Fit(x [][]float64, y []float64) error {
	dim, err := checkTrainingData(x, y)
	if err != nil {
		return err
	}
	a := linalg.NewMatrix(len(x), dim+1)
	for i, row := range x {
		a.Set(i, 0, 1)
		for j, v := range row {
			a.Set(i, j+1, v)
		}
	}
	at := a.T()
	gram := at.Mul(a)
	gram.AddToDiag(1e-8)
	w, err := linalg.SolveSPD(gram, at.MulVec(y))
	if err != nil {
		return err
	}
	l.Intercept = w[0]
	l.Coef = append([]float64(nil), w[1:]...)
	l.fitted = true
	return nil
}

// Predict implements Regressor.
func (l *Linear) Predict(x []float64) float64 {
	if !l.fitted {
		panic("ml: Linear.Predict before Fit")
	}
	if len(x) != len(l.Coef) {
		panic("ml: Linear.Predict feature dim mismatch")
	}
	out := l.Intercept
	for i, v := range x {
		out += l.Coef[i] * v
	}
	return out
}
