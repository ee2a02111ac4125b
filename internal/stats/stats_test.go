package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single sample should be NaN")
	}
}

func TestCovariancePearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10} // perfectly correlated
	if got := Pearson(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", got)
	}
	if !math.IsNaN(Pearson(xs, []float64{3, 3, 3, 3, 3})) {
		t.Error("Pearson with constant series should be NaN")
	}
}

func TestPearsonInvariantUnderAffine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r1 := Pearson(xs, ys)
		// Affine transform with positive scale must preserve r.
		xs2 := make([]float64, n)
		for i := range xs {
			xs2[i] = 3*xs[i] + 7
		}
		r2 := Pearson(xs2, ys)
		return almostEq(r1, r2, 1e-9) && r1 >= -1-1e-12 && r1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestPercentileMedian(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Errorf("P100 = %v", got)
	}
	if got := Median(xs); got != 35 {
		t.Errorf("median = %v", got)
	}
	if got := Percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("interpolated median = %v", got)
	}
	if got := Percentile([]float64{9}, 73); got != 9 {
		t.Errorf("single-element percentile = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty Summary string")
	}
}

func TestMeanAbsPercentError(t *testing.T) {
	actual := []float64{1, 2, 4}
	pred := []float64{1.1, 1.8, 4}
	mean, std := MeanAbsPercentError(actual, pred)
	// errors: 10%, 10%, 0% → mean 20/3
	if !almostEq(mean, 20.0/3, 1e-9) {
		t.Errorf("mean = %v", mean)
	}
	if std <= 0 {
		t.Errorf("std = %v", std)
	}
	// Zero actuals are skipped.
	m2, _ := MeanAbsPercentError([]float64{0, 1}, []float64{5, 1.2})
	if !almostEq(m2, 20, 1e-9) {
		t.Errorf("zero-skip mean = %v", m2)
	}
	if m3, _ := MeanAbsPercentError([]float64{0}, []float64{1}); !math.IsNaN(m3) {
		t.Error("all-zero actuals should give NaN")
	}
}
