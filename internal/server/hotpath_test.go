package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"qaoaml/internal/problem"
)

// The hot path is a request whose answer is already cached: decode,
// normalize (validate, compile, fingerprint, key), one LRU read, encode.
// Its five families are the benchmark's serve_hot_batch mix.
var hotFamilies = []string{
	problem.FamilyMaxCut, problem.FamilyQUBO, problem.FamilyMaxKSAT,
	problem.FamilyPartition, problem.FamilyPortfolio,
}

// hotRequest is the wire form of one seeded 8-qubit instance of the
// family, at depth 1 so warming the cache costs a closed-form solve.
func hotRequest(tb testing.TB, family string, seed int64) SolveRequest {
	tb.Helper()
	spec, err := problem.RandomSpec(family, 8, rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	w, err := problem.WireOf(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return SolveRequest{Problem: family, Wire: w, Depth: 1, Strategy: StrategyNaive, Wait: true}
}

// post drives one request through the handler, no socket.
func post(tb testing.TB, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	tb.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		tb.Fatalf("POST %s: status %d: %s", path, w.Code, w.Body)
	}
	return w
}

// warmHot returns a server whose cache holds the answers of count
// instances of the family, and those requests.
func warmHot(tb testing.TB, family string, count int) (*Server, []SolveRequest) {
	tb.Helper()
	s := New(Config{Workers: 1})
	tb.Cleanup(s.Close)
	reqs := make([]SolveRequest, count)
	for i := range reqs {
		reqs[i] = hotRequest(tb, family, int64(100+i))
		blob, err := json.Marshal(reqs[i])
		if err != nil {
			tb.Fatal(err)
		}
		post(tb, s.Handler(), "/v1/solve", blob)
	}
	waitCached(tb, s, count)
	return s, reqs
}

// waitCached blocks until the cache holds count results: a waiter is
// released when its job finishes, a moment before the result is cached.
func waitCached(tb testing.TB, s *Server, count int) {
	tb.Helper()
	for deadline := time.Now().Add(5 * time.Second); s.cache.Len() < count; {
		if time.Now().After(deadline) {
			tb.Fatalf("cache holds %d of %d answers", s.cache.Len(), count)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkHotPath times a cached answer through the handler, as one
// POST /v1/solve and as an item of a 16-item POST /v1/solve/batch:
// µs/item and allocs/item, JSON decode and encode included.
func BenchmarkHotPath(b *testing.B) {
	shapes := []struct {
		name  string
		items int
	}{{"single", 1}, {"batch16", 16}}
	for _, shape := range shapes {
		for _, family := range hotFamilies {
			b.Run(shape.name+"/"+family, func(b *testing.B) {
				s, reqs := warmHot(b, family, shape.items)
				path, payload := "/v1/solve", any(reqs[0])
				if shape.items > 1 {
					path, payload = "/v1/solve/batch", BatchRequest{Items: reqs}
				}
				body, err := json.Marshal(payload)
				if err != nil {
					b.Fatal(err)
				}
				h := s.Handler()
				post(b, h, path, body)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					post(b, h, path, body)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				items := float64(b.N * shape.items)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/items, "µs/item")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/items, "allocs/item")
				if hits := s.Metrics().Snapshot().Counters["server.cache.hits"]; hits < int64(items) {
					b.Fatalf("%d cache hits for %.0f items: the path timed is not the hot one", hits, items)
				}
			})
		}
	}
}

// hotPathAllocBudget is what normalize + submit may allocate to answer
// one request from the cache, per family, as measured when normalize
// began handing its compiled instance and identity on (go1.24; the
// slack of one is for the standard library's side of it: hex, strconv).
// A budget that fails means a stage is deriving the request's identity
// again: one more compile is ≥ 2 allocations (partition; 18 for
// maxksat), one more fingerprint ≥ 4.
var hotPathAllocBudget = map[string]float64{
	problem.FamilyMaxCut:    39,
	problem.FamilyQUBO:      18,
	problem.FamilyMaxKSAT:   37,
	problem.FamilyPartition: 12,
	problem.FamilyPortfolio: 31,
}

func TestHotPathAllocs(t *testing.T) {
	for _, family := range hotFamilies {
		s, reqs := warmHot(t, family, 1)
		allocs := testing.AllocsPerRun(100, func() {
			req := reqs[0]
			rs, herr := s.normalize(&req)
			if herr != nil {
				t.Fatal(herr)
			}
			job, outcome, herr := s.submit(&req, rs)
			if herr != nil || outcome != outcomeCached || job.result == nil {
				t.Fatalf("submit: outcome %d, %v", outcome, herr)
			}
		})
		t.Logf("%-9s %.0f allocs per cached answer (budget %.0f + 1)", family, allocs, hotPathAllocBudget[family])
		if allocs > hotPathAllocBudget[family]+1 {
			t.Errorf("%s: %.0f allocations per cached answer, budget %.0f + 1", family, allocs, hotPathAllocBudget[family])
		}
	}
}
