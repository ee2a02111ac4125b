package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// TraceCap bounds how many iteration events a Memory sink retains (full
// paper-scale dataset generation emits millions).
const TraceCap = 4096

// Memory is a thread-safe in-memory Recorder. Counters and histograms
// are created lazily on first use (histograms with DefaultBuckets
// unless DefineBuckets customized the name); iteration events are
// retained up to a cap, after which they are counted as dropped; spans
// are aggregated into per-name count/total-duration statistics.
type Memory struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	bounds   map[string][]float64 // per-name bucket layouts
	trace    []IterEvent
	dropped  int64 // atomic; events beyond TraceCap
	spans    map[string]*spanStats
}

type spanStats struct {
	count   int64
	totalNs int64
}

// NewMemory returns an empty sink.
func NewMemory() *Memory {
	return &Memory{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		bounds:   make(map[string][]float64),
		spans:    make(map[string]*spanStats),
	}
}

// DefineBuckets fixes the bucket layout the named histogram will use
// when first observed. It has no effect once the histogram exists.
func (m *Memory) DefineBuckets(name string, edges []float64) {
	m.mu.Lock()
	m.bounds[name] = append([]float64(nil), edges...)
	m.mu.Unlock()
}

// Iteration implements Recorder.
func (m *Memory) Iteration(ev IterEvent) {
	m.mu.Lock()
	if len(m.trace) < TraceCap {
		m.trace = append(m.trace, ev)
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	atomic.AddInt64(&m.dropped, 1)
}

// Count implements Recorder.
func (m *Memory) Count(name string, delta int64) {
	m.counter(name).Add(delta)
}

// Observe implements Recorder.
func (m *Memory) Observe(name string, v float64) {
	m.histogram(name).Observe(v)
}

// Span implements Recorder. The returned end function aggregates the
// elapsed wall time under the span name.
func (m *Memory) Span(name string) func() {
	start := time.Now()
	return func() {
		d := time.Since(start)
		m.mu.Lock()
		s := m.spans[name]
		if s == nil {
			s = &spanStats{}
			m.spans[name] = s
		}
		s.count++
		s.totalNs += d.Nanoseconds()
		m.mu.Unlock()
	}
}

// counter returns the named counter, creating it if needed.
func (m *Memory) counter(name string) *Counter {
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.counters[name]; c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it (with the defined
// or default bucket layout) if needed.
func (m *Memory) histogram(name string) *Histogram {
	m.mu.RLock()
	h := m.hists[name]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.hists[name]; h == nil {
		edges := m.bounds[name]
		if edges == nil {
			edges = DefaultBuckets()
		}
		h = NewHistogram(edges)
		m.hists[name] = h
	}
	return h
}

// CounterValue returns the named counter's value (0 if never written).
func (m *Memory) CounterValue(name string) int64 {
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// HistogramSnapshot returns the named histogram's snapshot and whether
// it exists.
func (m *Memory) HistogramSnapshot(name string) (HistogramSnapshot, bool) {
	m.mu.RLock()
	h := m.hists[name]
	m.mu.RUnlock()
	if h == nil {
		return HistogramSnapshot{}, false
	}
	return h.Snapshot(), true
}

// Trace returns a copy of the retained iteration events.
func (m *Memory) Trace() []IterEvent {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]IterEvent(nil), m.trace...)
}

// SpanSnapshot summarizes one aggregated span name.
type SpanSnapshot struct {
	Count   int64   `json:"count"`
	TotalMs float64 `json:"total_ms"`
	MeanMs  float64 `json:"mean_ms"`
}

// Snapshot is the JSON-serializable state of a Memory sink.
type Snapshot struct {
	Counters     map[string]int64             `json:"counters,omitempty"`
	Histograms   map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans        map[string]SpanSnapshot      `json:"spans,omitempty"`
	Trace        []IterEvent                  `json:"trace,omitempty"`
	TraceDropped int64                        `json:"trace_dropped,omitempty"`
}

// Snapshot captures the full sink state.
func (m *Memory) Snapshot() Snapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := Snapshot{
		Counters:     make(map[string]int64, len(m.counters)),
		Histograms:   make(map[string]HistogramSnapshot, len(m.hists)),
		Spans:        make(map[string]SpanSnapshot, len(m.spans)),
		Trace:        append([]IterEvent(nil), m.trace...),
		TraceDropped: atomic.LoadInt64(&m.dropped),
	}
	for name, c := range m.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range m.hists {
		s.Histograms[name] = h.Snapshot()
	}
	for name, sp := range m.spans {
		total := float64(sp.totalNs) / 1e6
		snap := SpanSnapshot{Count: sp.count, TotalMs: total}
		if sp.count > 0 {
			snap.MeanMs = total / float64(sp.count)
		}
		s.Spans[name] = snap
	}
	return s
}

// WriteJSON writes the indented JSON snapshot to w.
func (m *Memory) WriteJSON(w io.Writer) error {
	blob, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}
