package ml

import (
	"qaoaml/internal/linalg"
)

// Linear is linear regression with an intercept: the paper's "LM"
// model. It solves normal equations by Cholesky with a 1e-8 ridge on the
// Gram diagonal, which keeps a design with a constant column (a
// multiple of the intercept) or collinear columns solvable.
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
