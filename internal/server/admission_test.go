package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	"qaoaml/internal/problem"
)

func TestJobCost(t *testing.T) {
	cases := []struct {
		qubits, depth int
		want          int64
	}{
		{8, 1, 256},
		{8, 3, 768},
		{10, 2, 2048},
		{0, 0, 2}, // clamped to one qubit, depth one
		{30, 10, 10 << 30},
	}
	for _, c := range cases {
		if got := jobCost(c.qubits, c.depth); got != c.want {
			t.Errorf("jobCost(%d, %d) = %d, want %d", c.qubits, c.depth, got, c.want)
		}
	}
}

// healthzCost reads cost_inflight and cost_budget from GET /healthz.
func healthzCost(t *testing.T, url string) (inflight, budget int64) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		CostInflight int64 `json:"cost_inflight"`
		CostBudget   int64 `json:"cost_budget"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.CostInflight, h.CostBudget
}

// TestAdmissionBudgetExhausted: once the in-flight cost reaches the
// budget, further jobs get 429 with a positive Retry-After; the slot
// reopens when the blocking job finishes, and /healthz tracks the
// in-flight cost through the whole cycle.
func TestAdmissionBudgetExhausted(t *testing.T) {
	// One 8-node depth-1 job prices at 256: a budget of 256 admits
	// exactly one at a time.
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, MaxInflightCost: 256})
	started := make(chan *Job, 2)
	release := make(chan struct{})
	blockingSolve(s, started, release)

	if inflight, budget := healthzCost(t, ts.URL); inflight != 0 || budget != 256 {
		t.Fatalf("idle healthz: inflight %d budget %d", inflight, budget)
	}

	n1, e1 := testInstance(31)
	code, view := postSolve(t, ts.URL, SolveRequest{Wire: problem.Wire{Nodes: n1, Edges: e1}, Depth: 1, Strategy: StrategyNaive, Seed: 1})
	if code != http.StatusAccepted {
		t.Fatalf("first job: status %d", code)
	}
	<-started
	if inflight, _ := healthzCost(t, ts.URL); inflight != 256 {
		t.Fatalf("inflight cost %d with one job running, want 256", inflight)
	}

	n2, e2 := testInstance(32)
	blob, _ := json.Marshal(SolveRequest{Wire: problem.Wire{Nodes: n2, Edges: e2}, Depth: 1, Strategy: StrategyNaive, Seed: 2})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget job: status %d, want 429", resp.StatusCode)
	}
	if after, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || after < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if got := s.mem.CounterValue("server.admission.rejected"); got != 1 {
		t.Fatalf("admission.rejected counter %d, want 1", got)
	}

	close(release) // let the first job finish, freeing its cost
	pollJob(t, ts.URL, view.ID, 10*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if inflight, _ := healthzCost(t, ts.URL); inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight cost never returned to 0")
		}
		time.Sleep(2 * time.Millisecond)
	}
	code, view2 := postSolve(t, ts.URL, SolveRequest{
		Wire: problem.Wire{Nodes: n2, Edges: e2}, Depth: 1, Strategy: StrategyNaive, Seed: 2, Wait: true})
	if code != http.StatusOK || view2.State != StateDone {
		t.Fatalf("retried job after budget freed: status %d state %s", code, view2.State)
	}
}

// TestAdmissionWhaleAdmittedWhenIdle: a single job pricier than the
// whole budget is still admitted when nothing is in flight — the
// budget throttles concurrency, it must not starve big jobs forever.
func TestAdmissionWhaleAdmittedWhenIdle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInflightCost: 1})
	nodes, edges := testInstance(33)
	code, view := postSolve(t, ts.URL, SolveRequest{
		Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive, Seed: 1, Wait: true})
	if code != http.StatusOK || view.State != StateDone {
		t.Fatalf("whale on idle server: status %d state %s", code, view.State)
	}
}

// TestAdmissionCheapFlowsPastWhale: with a whale occupying most of the
// budget, cheap jobs that still fit keep flowing while a second whale
// is turned away.
func TestAdmissionCheapFlowsPastWhale(t *testing.T) {
	// Whale: 12 qubits depth 1 → 4096. Cheap: 8 qubits → 256.
	// Budget 4096+512 admits the whale plus cheap traffic, but not two
	// whales.
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, MaxInflightCost: 4096 + 512})
	started := make(chan *Job, 2)
	release := make(chan struct{})
	defer close(release)
	blockingSolve(s, started, release)

	whale := SolveRequest{Problem: "partition", Wire: problem.Wire{Numbers: make([]float64, 12)}, Depth: 1, Strategy: StrategyNaive, Seed: 1}
	for i := range whale.Numbers {
		whale.Numbers[i] = float64(i + 1)
	}
	if code, _ := postSolve(t, ts.URL, whale); code != http.StatusAccepted {
		t.Fatalf("whale: status %d", code)
	}
	<-started

	whale2 := whale
	whale2.Seed = 2
	blob, _ := json.Marshal(whale2)
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second whale: status %d, want 429", resp.StatusCode)
	}

	nodes, edges := testInstance(34)
	code, _ := postSolve(t, ts.URL, SolveRequest{Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive, Seed: 3})
	if code != http.StatusAccepted {
		t.Fatalf("cheap job behind the whale: status %d, want 202", code)
	}
	if got := s.mem.CounterValue("server.admission.rejected"); got != 1 {
		t.Fatalf("admission.rejected counter %d, want 1 (only the second whale)", got)
	}
}

// TestAdmissionCacheHitsBypass: cache hits are never admitted (cost 0),
// so a fully cached request succeeds even when the budget is occupied.
func TestAdmissionCacheHitsBypass(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, MaxInflightCost: 256})
	nodes, edges := testInstance(35)
	req := SolveRequest{Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive, Seed: 1, Wait: true}
	if code, view := postSolve(t, ts.URL, req); code != http.StatusOK || view.State != StateDone {
		t.Fatalf("priming solve failed: %d %+v", code, view)
	}

	// Park a job that consumes the whole budget…
	started := make(chan *Job, 1)
	release := make(chan struct{})
	defer close(release)
	blockingSolve(s, started, release)
	n2, e2 := testInstance(36)
	if code, _ := postSolve(t, ts.URL, SolveRequest{Wire: problem.Wire{Nodes: n2, Edges: e2}, Depth: 1, Strategy: StrategyNaive, Seed: 2}); code != http.StatusAccepted {
		t.Fatal("blocker not accepted")
	}
	<-started

	// …and the cached spec still answers instantly.
	code, view := postSolve(t, ts.URL, req)
	if code != http.StatusOK || !view.Cached || view.State != StateDone {
		t.Fatalf("cached request during budget exhaustion: status %d view %+v", code, view)
	}
}

// A cold estimator (no job has ever retired, so the EWMA retire rate
// is zero) must hand out the bounded default Retry-After, not the
// degenerate 1-second floor that tells every rejected client to hammer
// a server that has never freed capacity.
func TestAdmissionColdStartRetryAfter(t *testing.T) {
	a := admission{budget: 100}
	if !a.admit(100) {
		t.Fatal("idle budget refused its first job")
	}
	if got := a.retryAfter(50); got != coldStartRetryAfter {
		t.Fatalf("cold-start retryAfter = %d, want %d", got, coldStartRetryAfter)
	}
	if coldStartRetryAfter < 1 || coldStartRetryAfter > 60 {
		t.Fatalf("coldStartRetryAfter = %d escapes the [1, 60] clamp", coldStartRetryAfter)
	}

	// Once a retirement calibrates the rate, the real estimate takes
	// over: 100 cost units retiring per second puts a 50-unit wait at
	// one second, not the cold default.
	a.release(100, 1.0)
	if !a.admit(100) {
		t.Fatal("refilled budget refused")
	}
	if got := a.retryAfter(50); got == coldStartRetryAfter || got < 1 {
		t.Fatalf("calibrated retryAfter = %d, still the cold default", got)
	}
}
