package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(-1)
	if c.Value() != 2 {
		t.Fatalf("Value = %d, want 2", c.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 { // NaN dropped
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	wantCounts := []int64{2, 1, 1} // ≤1: {0.5, 1}; ≤2: {1.5}; ≤4: {3}
	for i, want := range wantCounts {
		if s.Buckets[i].Count != want {
			t.Errorf("bucket %d (le=%v) = %d, want %d", i, s.Buckets[i].Le, s.Buckets[i].Count, want)
		}
	}
	if s.Overflow != 1 {
		t.Errorf("Overflow = %d, want 1", s.Overflow)
	}
	if math.Abs(s.Sum-106) > 1e-12 {
		t.Errorf("Sum = %v, want 106", s.Sum)
	}
	if math.Abs(s.Mean-106.0/5) > 1e-12 {
		t.Errorf("Mean = %v", s.Mean)
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, edges := range [][]float64{{}, {2, 1}, {1, 1}, {1, math.Inf(1)}, {math.NaN()}} {
		edges := edges
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v): expected panic", edges)
				}
			}()
			NewHistogram(edges)
		}()
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestMemorySink(t *testing.T) {
	m := NewMemory()
	m.DefineBuckets("fc", []float64{10, 100, 1000})
	m.Count("runs", 2)
	m.Count("runs", 1)
	m.Observe("fc", 42)
	m.Observe("latency_ms", 0.3)
	end := m.Span("flow")
	end()
	m.Iteration(IterEvent{Source: "L-BFGS-B", Iter: 0, F: -1, NFev: 5})

	if got := m.CounterValue("runs"); got != 3 {
		t.Errorf("runs = %d, want 3", got)
	}
	if got := m.CounterValue("missing"); got != 0 {
		t.Errorf("missing counter = %d, want 0", got)
	}
	fc, ok := m.HistogramSnapshot("fc")
	if !ok || fc.Count != 1 || fc.Buckets[1].Count != 1 {
		t.Errorf("fc histogram wrong: %+v (ok=%v)", fc, ok)
	}
	if len(fc.Buckets) != 3 {
		t.Errorf("fc buckets = %d, want the 3 defined edges", len(fc.Buckets))
	}
	if _, ok := m.HistogramSnapshot("nope"); ok {
		t.Error("HistogramSnapshot invented a histogram")
	}

	s := m.Snapshot()
	if s.Spans["flow"].Count != 1 {
		t.Errorf("span count = %d, want 1", s.Spans["flow"].Count)
	}
	if len(s.Trace) != 1 || s.Trace[0].Source != "L-BFGS-B" {
		t.Errorf("trace = %+v", s.Trace)
	}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counters["runs"] != 3 {
		t.Errorf("round-tripped runs = %d", round.Counters["runs"])
	}
}

func TestMemoryTraceCap(t *testing.T) {
	m := NewMemory()
	for i := 0; i < TraceCap+3; i++ {
		m.Iteration(IterEvent{Iter: i})
	}
	s := m.Snapshot()
	if len(s.Trace) != TraceCap {
		t.Fatalf("trace len = %d, want %d", len(s.Trace), TraceCap)
	}
	if s.TraceDropped != 3 {
		t.Fatalf("dropped = %d, want 3", s.TraceDropped)
	}
	if last := s.Trace[TraceCap-1].Iter; last != TraceCap-1 {
		t.Fatalf("last kept event is iteration %d, want %d", last, TraceCap-1)
	}
}

// TestMemoryConcurrent exercises the sink from many goroutines; run
// with -race (CI does) to verify the shared-Recorder contract datagen
// workers rely on.
func TestMemoryConcurrent(t *testing.T) {
	m := NewMemory()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.Count("n", 1)
				m.Observe("v", float64(i))
				m.Iteration(IterEvent{Source: "w", Iter: i})
				m.Span("s")()
			}
		}(w)
	}
	wg.Wait()
	if got := m.CounterValue("n"); got != workers*perWorker {
		t.Errorf("n = %d, want %d", got, workers*perWorker)
	}
	v, _ := m.HistogramSnapshot("v")
	if v.Count != workers*perWorker {
		t.Errorf("v count = %d, want %d", v.Count, workers*perWorker)
	}
	s := m.Snapshot()
	if s.Spans["s"].Count != workers*perWorker {
		t.Errorf("span count = %d", s.Spans["s"].Count)
	}
	if int64(len(s.Trace))+s.TraceDropped != workers*perWorker {
		t.Errorf("trace %d + dropped %d != %d", len(s.Trace), s.TraceDropped, workers*perWorker)
	}
}

func TestNopRecorderDoesNotAllocate(t *testing.T) {
	var rec Recorder = Nop{}
	ev := IterEvent{Source: "x", F: 1, GNorm: 2, Step: 3, NFev: 4}
	allocs := testing.AllocsPerRun(100, func() {
		rec.Iteration(ev)
		rec.Count("a", 1)
		rec.Observe("b", 2)
		rec.Span("c")()
	})
	if allocs != 0 {
		t.Fatalf("Nop recorder allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestOrNop(t *testing.T) {
	if _, ok := OrNop(nil).(Nop); !ok {
		t.Error("OrNop(nil) is not Nop")
	}
	m := NewMemory()
	if OrNop(m) != Recorder(m) {
		t.Error("OrNop did not pass through a real recorder")
	}
}

func TestPublishExpvar(t *testing.T) {
	m := NewMemory()
	m.Count("x", 1)
	if !m.PublishExpvar("telemetry_test_sink") {
		t.Fatal("first publish failed")
	}
	if m.PublishExpvar("telemetry_test_sink") {
		t.Fatal("duplicate publish should return false, not panic")
	}
}
