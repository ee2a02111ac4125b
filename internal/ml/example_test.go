package ml_test

import (
	"fmt"

	"qaoaml/internal/ml"
)

// Fit and query a linear model.
func ExampleLinear() {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	var lm ml.Linear
	if err := lm.Fit(x, y); err != nil {
		panic(err)
	}
	fmt.Printf("%.1f\n", lm.Predict([]float64{10}))
	// Output: 21.0
}

// Train one model per output column: a MultiOutput bank from FitBanks.
func ExampleMultiOutput() {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := [][]float64{{0, 3}, {2, 2}, {4, 1}, {6, 0}} // y0 = 2x, y1 = 3 − x
	banks, _, err := ml.FitBanks(func() ml.Regressor { return &ml.Linear{} }, x, [][][]float64{y})
	if err != nil {
		panic(err)
	}
	out := banks[0].Predict([]float64{5})
	fmt.Printf("%.0f %.0f\n", out[0], out[1])
	// Output: 10 -2
}

// Compare predictions against ground truth with the paper's metrics.
func ExampleEvaluate() {
	actual := []float64{1, 2, 3, 4}
	pred := []float64{1.5, 2.5, 2.5, 3.5}
	m := ml.Evaluate(actual, pred, 1)
	fmt.Printf("MSE=%.2f MAE=%.2f R2=%.2f\n", m.MSE, m.MAE, m.R2)
	// Output: MSE=0.25 MAE=0.50 R2=0.80
}
