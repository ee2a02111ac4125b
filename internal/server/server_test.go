package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/quantum"
	"qaoaml/internal/telemetry"
)

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Registry: testRegistry(t)})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Status  string   `json:"status"`
		Workers int      `json:"workers"`
		Models  []string `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Workers != 2 {
		t.Fatalf("healthz %+v", body)
	}
	if len(body.Models) != 1 || body.Models[0] != "default" {
		t.Fatalf("models %v", body.Models)
	}
}

// The effective register ceiling shows up in /healthz and is enforced
// at admission with a 400 naming the limit; a configured MaxNodes above
// the simulator's register ceiling clamps to quantum.MaxQubits.
func TestQubitCeiling(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxNodes: 10, Registry: testRegistry(t)})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		QubitCeiling int `json:"qubit_ceiling"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.QubitCeiling != 10 {
		t.Fatalf("qubit_ceiling = %d, want 10", body.QubitCeiling)
	}

	_, edges := testInstance(3)
	code, raw := postSolveRaw(t, ts.URL, SolveRequest{Wire: problem.Wire{Nodes: 11, Edges: edges}, Depth: 2})
	if code != http.StatusBadRequest {
		t.Fatalf("solve above ceiling: status %d, body %s", code, raw)
	}
	if !strings.Contains(string(raw), "[2, 10]") {
		t.Fatalf("rejection does not name the ceiling: %s", raw)
	}

	if got := (Config{MaxNodes: 99}).withDefaults().MaxNodes; got != quantum.MaxQubits {
		t.Fatalf("MaxNodes clamp = %d, want quantum.MaxQubits = %d", got, quantum.MaxQubits)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if _, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.http.requests"] < 1 {
		t.Fatalf("request counter missing: %v", snap.Counters)
	}
	if _, ok := snap.Histograms["server.http.healthz_ms"]; !ok {
		t.Fatalf("healthz latency histogram missing: %v", snap.Histograms)
	}
}

func TestSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Registry: testRegistry(t)})
	nodes, edges := testInstance(3)
	base := SolveRequest{Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 2}

	cases := map[string]func(r *SolveRequest){
		"no edges":            func(r *SolveRequest) { r.Edges = nil },
		"nodes too small":     func(r *SolveRequest) { r.Nodes = 1 },
		"nodes too large":     func(r *SolveRequest) { r.Nodes = 31 },
		"edge out of range":   func(r *SolveRequest) { r.Edges = append(r.Edges[:0:0], [2]int{0, 99}) },
		"self loop":           func(r *SolveRequest) { r.Edges = append(r.Edges[:0:0], [2]int{1, 1}) },
		"duplicate edge":      func(r *SolveRequest) { r.Edges = append(r.Edges[:0:0], [2]int{0, 1}, [2]int{1, 0}) },
		"weight mismatch":     func(r *SolveRequest) { r.Weights = []float64{1} },
		"zero weight":         func(r *SolveRequest) { r.Weights = make([]float64, len(r.Edges)) },
		"bad depth":           func(r *SolveRequest) { r.Depth = 0 },
		"depth too large":     func(r *SolveRequest) { r.Depth = 99 },
		"bad strategy":        func(r *SolveRequest) { r.Strategy = "quantum-annealing" },
		"bad optimizer":       func(r *SolveRequest) { r.Optimizer = "adam" },
		"unknown model":       func(r *SolveRequest) { r.Model = "nope" },
		"untrained depth":     func(r *SolveRequest) { r.Depth = 9 },
		"two-level at p=1":    func(r *SolveRequest) { r.Depth = 1 },
		"naive without model": func(r *SolveRequest) { r.Strategy = StrategyNaive; r.Depth = 0 },
	}
	for name, mutate := range cases {
		req := base
		req.Edges = append([][2]int(nil), base.Edges...)
		mutate(&req)
		code, body := postSolveRaw(t, ts.URL, req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", name, code, body)
		}
	}

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
}

func TestNaiveSolveMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	nodes, edges := testInstance(4)
	const seed, depth = 9, 2
	code, view := postSolve(t, ts.URL, SolveRequest{
		Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: depth,
		Strategy: StrategyNaive, Seed: seed, Wait: true,
	})
	if code != http.StatusOK || view.State != StateDone {
		t.Fatalf("status %d, view %+v", code, view)
	}

	g := buildGraph(t, nodes, edges)
	pb, err := qaoa.NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Solve(context.Background(), pb, core.Options{
		Depth: depth, Optimizer: &optimize.LBFGSB{Tol: 1e-6}, Rng: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if view.Result == nil {
		t.Fatal("no result")
	}
	if view.Result.AR != direct.AR || view.Result.NFev != direct.NFev {
		t.Fatalf("served AR/NFev %v/%d != direct %v/%d",
			view.Result.AR, view.Result.NFev, direct.AR, direct.NFev)
	}
	for i := range direct.Params.Gamma {
		if view.Result.Gamma[i] != direct.Params.Gamma[i] || view.Result.Beta[i] != direct.Params.Beta[i] {
			t.Fatalf("served params diverge at stage %d", i)
		}
	}
	if view.Result.Fingerprint != g.Fingerprint() {
		t.Fatal("fingerprint mismatch")
	}
}

// Integer-valued weights of any size are served and leave the process
// up: a 13-node ring at w = 1e19 is past every int64 sum of its weights.
func TestHugeIntegerWeightsSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	const nodes = 13
	req := SolveRequest{Wire: problem.Wire{Nodes: nodes}, Depth: 2, Strategy: StrategyNaive, Seed: 1, Wait: true}
	for v := 0; v < nodes; v++ {
		req.Edges = append(req.Edges, [2]int{v, (v + 1) % nodes})
		req.Weights = append(req.Weights, 1e19)
	}
	code, view := postSolve(t, ts.URL, req)
	if code != http.StatusOK || view.State != StateDone || view.Result == nil {
		t.Fatalf("status %d, view %+v", code, view)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d after the solve", resp.StatusCode)
	}
}

func TestJobEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if code, _ := getJob(t, ts.URL, "job-00000099"); code != http.StatusNotFound {
		t.Fatalf("missing job: status %d", code)
	}
	nodes, edges := testInstance(5)
	code, view := postSolve(t, ts.URL, SolveRequest{
		Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive,
	})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	final := pollJob(t, ts.URL, view.ID, 30*time.Second)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("final %+v", final)
	}
	if final.Result.AR <= 0 || final.Result.AR > 1+1e-9 {
		t.Fatalf("AR %v out of range", final.Result.AR)
	}
}

func TestSingleFlightCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	started := make(chan *Job, 1)
	release := make(chan struct{})
	blockingSolve(s, started, release)

	nodes, edges := testInstance(6)
	req := SolveRequest{Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive}
	_, first := postSolve(t, ts.URL, req)
	<-started
	_, second := postSolve(t, ts.URL, req)
	if second.ID != first.ID {
		t.Fatalf("identical request got a new job: %s vs %s", second.ID, first.ID)
	}
	if !second.Coalesced {
		t.Fatal("second response not marked coalesced")
	}
	if got := s.mem.CounterValue("server.jobs.coalesced"); got != 1 {
		t.Fatalf("coalesced counter %d", got)
	}
	// A different seed is a different key and must NOT coalesce.
	diff := req
	diff.Seed = 2
	_, third := postSolve(t, ts.URL, diff)
	if third.ID == first.ID {
		t.Fatal("different options coalesced")
	}
	close(release)
	pollJob(t, ts.URL, first.ID, 10*time.Second)
}

// Identical requests racing a job's completion find its answer in the
// cache or the job in flight, never neither: afterFinish fills the
// cache in the critical section that drops the in-flight entry, so
// each distinct request is solved exactly once.
func TestSingleFlightNoRepeatSolve(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	s.solveFn = func(ctx context.Context, job *Job) (*SolveResult, error) {
		return &SolveResult{Strategy: job.req.Strategy, AR: 1, Fingerprint: job.fp}, nil
	}
	const rounds, submitters = 200, 3
	for k := 1; k <= rounds; k++ {
		req := SolveRequest{Problem: "partition", Wire: problem.Wire{Numbers: []float64{4, 5, 6, 7}}, Depth: 1, Strategy: StrategyNaive, Seed: int64(k)}
		rs, herr := s.normalize(&req)
		if herr != nil {
			t.Fatal(herr)
		}
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					r := req
					_, outcome, herr := s.submit(&r, rs)
					if herr != nil {
						t.Error(herr)
						return
					}
					if outcome == outcomeCached {
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	if n := s.mem.CounterValue("server.jobs.submitted"); n != rounds {
		t.Errorf("%d jobs submitted for %d distinct requests: a repeat missed both the cache and the job in flight", n, rounds)
	}
}

// A Wait reply leaves only once the answer is cached, so a repeat sent
// on the reply is a cache hit, not coalesced onto the finished job. The
// solver returns holding s.mu, which parks afterFinish before its cache
// fill: the reply must not arrive meanwhile.
func TestWaitReplyAfterCacheFill(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	locked := make(chan struct{})
	var once sync.Once
	s.solveFn = func(ctx context.Context, job *Job) (*SolveResult, error) {
		once.Do(func() {
			s.mu.Lock()
			close(locked)
		})
		return &SolveResult{Strategy: job.req.Strategy, AR: 1, Fingerprint: job.fp}, nil
	}
	req := SolveRequest{Problem: "partition", Wire: problem.Wire{Numbers: []float64{4, 5, 6, 7}}, Depth: 1, Strategy: StrategyNaive, Wait: true}
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	replied := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(string(blob)))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		replied <- err
	}()
	<-locked
	select {
	case <-replied:
		s.mu.Unlock()
		t.Fatal("the Wait reply arrived before afterFinish cached the answer")
	case <-time.After(100 * time.Millisecond):
	}
	s.mu.Unlock()
	if err := <-replied; err != nil {
		t.Fatal(err)
	}
	code, view := postSolve(t, ts.URL, req)
	if code != http.StatusOK || !view.Cached || view.Coalesced {
		t.Fatalf("repeat after the reply: status %d cached %v coalesced %v, want a 200 cache hit", code, view.Cached, view.Coalesced)
	}
}

func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	started := make(chan *Job, 1)
	release := make(chan struct{})
	blockingSolve(s, started, release)

	nodes, edges := testInstance(7)
	mkReq := func(seed int64) SolveRequest {
		return SolveRequest{Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive, Seed: seed}
	}
	postSolve(t, ts.URL, mkReq(1)) // running
	<-started
	postSolve(t, ts.URL, mkReq(2)) // fills the queue

	blob, _ := json.Marshal(mkReq(3))
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.mem.CounterValue("server.http.backpressure"); got != 1 {
		t.Fatalf("backpressure counter %d", got)
	}
	close(release)
}

func TestDrainRejectsNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	nodes, edges := testInstance(8)
	code, view := postSolve(t, ts.URL, SolveRequest{
		Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive, Wait: true,
	})
	if code != http.StatusOK || view.State != StateDone {
		t.Fatalf("pre-drain solve: %d %+v", code, view)
	}
	if err := s.Drain(drainCtx(t, 30*time.Second)); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Draining is idempotent.
	if err := s.Drain(drainCtx(t, time.Second)); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: %d", resp.StatusCode)
	}
	code, body := postSolveRaw(t, ts.URL, SolveRequest{
		Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive,
	})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain solve: %d %s", code, body)
	}
}

func TestJobStoreEvictsFinished(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxJobs: 4})
	nodes, edges := testInstance(9)
	for seed := int64(1); seed <= 8; seed++ {
		code, view := postSolve(t, ts.URL, SolveRequest{
			Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive, Seed: seed, Wait: true,
		})
		if code != http.StatusOK || view.State != StateDone {
			t.Fatalf("seed %d: %d %+v", seed, code, view)
		}
	}
	if got := s.jobs.len(); got > 4 {
		t.Fatalf("job store grew to %d records (cap 4)", got)
	}
}

// A /v1/solve reply is 200 only when it is the answer: cached, or
// waited for. A fresh or coalesced job the client did not wait for is a
// 202 even when it has finished by the time the reply is written, so a
// client — the fleet's dispatcher among them — reads its iteration
// events from its stream.
func TestSolveStatus(t *testing.T) {
	for _, tc := range []struct {
		outcome submitOutcome
		waited  bool
		want    int
	}{
		{outcomeCached, false, http.StatusOK},
		{outcomeCached, true, http.StatusOK},
		{outcomeQueued, false, http.StatusAccepted},
		{outcomeQueued, true, http.StatusOK},
		{outcomeCoalesced, false, http.StatusAccepted},
		{outcomeCoalesced, true, http.StatusOK},
	} {
		if got := status(entry{outcome: tc.outcome}, tc.waited); got != tc.want {
			t.Errorf("outcome %d, waited %v: status %d, want %d", tc.outcome, tc.waited, got, tc.want)
		}
	}
}
