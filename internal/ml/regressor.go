// Package ml implements the four supervised regression models the paper
// evaluates as QAOA-parameter predictors — Gaussian-process regression
// (GPR), linear regression (LM), a CART regression tree (RTREE), and
// ε-insensitive support-vector regression (RSVM) — together with the
// regression metrics the paper compares them on (MSE, RMSE, MAE, R²,
// adjusted R²). It replaces the MATLAB Statistics and Machine Learning
// Toolbox in the original stack.
package ml

import (
	"errors"
	"fmt"
)

// Regressor is a single-output supervised regression model.
type Regressor interface {
	// Fit trains on rows X (one sample per row) and targets y.
	Fit(x [][]float64, y []float64) error
	// Predict returns the model output for one feature vector.
	// It panics if called before a successful Fit.
	Predict(x []float64) float64
	// Name identifies the model family, e.g. "GPR".
	Name() string
}

// ErrEmptyTrainingSet is returned by Fit on empty input.
var ErrEmptyTrainingSet = errors.New("ml: empty training set")

// ErrBadShape is returned by Fit when X and y disagree or rows are ragged.
var ErrBadShape = errors.New("ml: inconsistent training data shape")

// checkTrainingData validates the common Fit preconditions and returns
// the feature dimension.
func checkTrainingData(x [][]float64, y []float64) (dim int, err error) {
	if len(x) == 0 {
		return 0, ErrEmptyTrainingSet
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: %d rows vs %d targets", ErrBadShape, len(x), len(y))
	}
	dim = len(x[0])
	if dim == 0 {
		return 0, fmt.Errorf("%w: zero-width feature rows", ErrBadShape)
	}
	for i, row := range x {
		if len(row) != dim {
			return 0, fmt.Errorf("%w: row %d has %d features, want %d", ErrBadShape, i, len(row), dim)
		}
	}
	return dim, nil
}

// cloneRows deep-copies a feature matrix.
func cloneRows(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = append([]float64(nil), row...)
	}
	return out
}
