package ml

import (
	"fmt"
	"math"
)

// Metrics bundles the regression quality measures the paper compares
// its four models on (Sec. III-C): MSE, RMSE, MAE, R², adjusted R².
type Metrics struct {
	MSE, RMSE, MAE float64
	R2, R2Adj      float64
	N              int // samples
	P              int // predictors, for the R² adjustment
}

// Evaluate computes Metrics from actual/predicted pairs; p is the
// number of predictor variables used by the model (for adjusted R²).
// It panics on length mismatch or empty input.
func Evaluate(actual, predicted []float64, p int) Metrics {
	if len(actual) != len(predicted) {
		panic(fmt.Sprintf("ml: metrics length mismatch %d != %d", len(actual), len(predicted)))
	}
	n := len(actual)
	if n == 0 {
		panic("ml: metrics on empty data")
	}
	var sse, sae float64
	mean := 0.0
	for _, a := range actual {
		mean += a
	}
	mean /= float64(n)
	var sst float64
	for i := range actual {
		e := predicted[i] - actual[i]
		sse += e * e
		sae += math.Abs(e)
		d := actual[i] - mean
		sst += d * d
	}
	m := Metrics{
		MSE:  sse / float64(n),
		RMSE: math.Sqrt(sse / float64(n)),
		MAE:  sae / float64(n),
		N:    n,
		P:    p,
	}
	if sst > 0 {
		m.R2 = 1 - sse/sst
	} else {
		m.R2 = math.NaN()
	}
	if n-p-1 > 0 && !math.IsNaN(m.R2) {
		m.R2Adj = 1 - (1-m.R2)*float64(n-1)/float64(n-p-1)
	} else {
		m.R2Adj = math.NaN()
	}
	return m
}

// Better reports whether m dominates o the way the paper ranks models:
// lower MSE, RMSE and MAE, higher R² and adjusted R². Ties on MSE fall
// through to RMSE, then MAE, then R².
func (m Metrics) Better(o Metrics) bool {
	switch {
	case m.MSE != o.MSE:
		return m.MSE < o.MSE
	case m.RMSE != o.RMSE:
		return m.RMSE < o.RMSE
	case m.MAE != o.MAE:
		return m.MAE < o.MAE
	default:
		return m.R2 > o.R2
	}
}
