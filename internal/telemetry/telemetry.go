// Package telemetry is a dependency-free metrics and tracing layer for
// the QAOA pipeline. The paper's headline metric is function-call count
// (44.9 % average FC reduction, Table I), and related iteration-free /
// warm-start work (Amosy et al., arXiv:2208.09888; Xie et al.,
// arXiv:2211.09513) measures the same iteration/FC trade-off — so
// per-iteration optimizer traces and FC/latency histograms are product
// data here, not debug noise.
//
// The package provides three layers:
//
//   - Primitives: atomic Counter, fixed-bucket Histogram (lock-free
//     Observe), and histogram-backed timers.
//   - The Recorder interface: the hook every producer (optimizers,
//     dataset generation, the two-level flow) emits into. Nop is the
//     zero-cost default; Memory is a thread-safe in-memory sink whose
//     Snapshot serializes to JSON.
//   - Process hook: expvar publication of a live Memory snapshot.
//
// Everything is stdlib-only and safe for concurrent use unless noted.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically adjustable atomic counter.
type Counter struct {
	v int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { atomic.AddInt64(&c.v, delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return atomic.LoadInt64(&c.v) }

// Histogram is a fixed-bucket histogram with lock-free observation.
// Bounds are inclusive upper edges of the finite buckets; one implicit
// overflow bucket collects everything above the last edge. NaN
// observations are dropped (they would poison Sum).
type Histogram struct {
	bounds  []float64
	counts  []int64 // len(bounds)+1; last is the overflow bucket
	total   int64
	sumBits uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given strictly increasing
// finite upper edges. It panics on empty, unsorted or non-finite edges.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket edge")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("telemetry: bucket edge %d is not finite", i))
		}
		if i > 0 && bounds[i-1] >= b {
			panic(fmt.Sprintf("telemetry: bucket edges not strictly increasing at %d", i))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
}

// ExpBuckets returns n exponentially spaced edges start, start·factor,
// start·factor², … — the usual layout for latencies and call counts.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	edges := make([]float64, n)
	v := start
	for i := range edges {
		edges[i] = v
		v *= factor
	}
	return edges
}

// DefaultBuckets covers both sub-millisecond latencies and five-digit
// function-call counts: 0.5, 1, 2, …, ~5.2e5 (21 edges).
func DefaultBuckets() []float64 { return ExpBuckets(0.5, 2, 21) }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first edge >= v
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.total, 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sumBits, old, nw) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return atomic.LoadInt64(&h.total) }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(atomic.LoadUint64(&h.sumBits))
}

// Bucket is one finite histogram bucket in a snapshot: the count of
// samples ≤ Le (and above the previous edge).
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is a point-in-time, JSON-serializable histogram
// state. Overflow counts samples above the last finite edge (kept out
// of Buckets because JSON cannot encode +Inf).
type HistogramSnapshot struct {
	Count    int64    `json:"count"`
	Sum      float64  `json:"sum"`
	Mean     float64  `json:"mean"`
	Overflow int64    `json:"overflow,omitempty"`
	Buckets  []Bucket `json:"buckets"`
}

// Snapshot captures the histogram state. Empty buckets are retained so
// every snapshot of one histogram has the same shape.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.Count(),
		Sum:      h.Sum(),
		Overflow: atomic.LoadInt64(&h.counts[len(h.bounds)]),
		Buckets:  make([]Bucket, len(h.bounds)),
	}
	for i, edge := range h.bounds {
		s.Buckets[i] = Bucket{Le: edge, Count: atomic.LoadInt64(&h.counts[i])}
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	return s
}
