package main

import (
	"time"

	"qaoaml/internal/stats"
)

// tailPercentile is the reporting rule for latencies: the highest of
// p90/p95/p99/p99.9 that still has at least ten samples beyond it.
// ok is false when even p90 has fewer (n < 100).
func tailPercentile(n int) (q float64, ok bool) {
	for _, c := range []float64{0.999, 0.99, 0.95, 0.90} {
		if float64(n)*(1-c) >= 10 {
			return c, true
		}
	}
	return 0, false
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timeReps runs fn reps times and returns the per-call durations.
func timeReps(reps int, fn func()) []time.Duration {
	out := make([]time.Duration, reps)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = time.Since(t0)
	}
	return out
}

// medianDur is the median of a duration sample, in nanoseconds.
func medianDur(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x.Nanoseconds())
	}
	return stats.Median(v)
}

// perCallNs times batches of fn and returns the median nanoseconds per
// call: for calls too short to time one by one.
func perCallNs(batches, perBatch int, fn func()) float64 {
	d := timeReps(batches, func() {
		for i := 0; i < perBatch; i++ {
			fn()
		}
	})
	return medianDur(d) / float64(perBatch)
}
