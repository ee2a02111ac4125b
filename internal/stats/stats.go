// Package stats provides the descriptive statistics used throughout the
// reproduction: means, standard deviations, Pearson correlation (the
// paper's dataset analysis in Sec. III-B), percentiles, and the Fig. 6
// prediction error.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance, or NaN when
// fewer than two samples are given.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Covariance returns the unbiased sample covariance of xs and ys.
// It panics if lengths differ and returns NaN for fewer than two samples.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: length mismatch %d != %d", len(xs), len(ys)))
	}
	if len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs)-1)
}

// Pearson returns the Pearson correlation coefficient r of xs and ys.
// It returns NaN when either series is constant.
func Pearson(xs, ys []float64) float64 {
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return math.NaN()
	}
	return Covariance(xs, ys) / (sx * sy)
}

// Min returns the minimum of xs. It panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between order statistics. It panics on empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary bundles the descriptive statistics reported in the paper's
// tables (mean and standard deviation) plus range information.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	Median    float64
	P25, P75  float64
}

// Summarize computes a Summary of xs. It panics on empty input.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Std:    StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		Median: Median(xs),
		P25:    Percentile(xs, 25),
		P75:    Percentile(xs, 75),
	}
}

// String renders the summary in one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f std=%.4f min=%.4f p25=%.4f med=%.4f p75=%.4f max=%.4f",
		s.N, s.Mean, s.Std, s.Min, s.P25, s.Median, s.P75, s.Max)
}

// MeanAbsPercentError returns the mean of |pred-actual|/|actual|·100 over
// all pairs, skipping pairs where actual is (near) zero, along with the
// standard deviation of the same per-pair percentages. This is the error
// measure reported in the paper's Fig. 6.
func MeanAbsPercentError(actual, pred []float64) (mean, std float64) {
	if len(actual) != len(pred) {
		panic("stats: length mismatch")
	}
	var errs []float64
	for i := range actual {
		if math.Abs(actual[i]) < 1e-9 {
			continue
		}
		errs = append(errs, math.Abs(pred[i]-actual[i])/math.Abs(actual[i])*100)
	}
	if len(errs) == 0 {
		return math.NaN(), math.NaN()
	}
	return Mean(errs), StdDev(errs)
}
