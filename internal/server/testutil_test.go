package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/graph"
)

// testEnv builds one tiny dataset + trained GPR predictor for the whole
// package: dataset generation dominates test time, so it is shared.
var testEnv struct {
	once sync.Once
	pred *core.Predictor
	err  error
}

const testTrainSeed = 17

func testPredictor(t *testing.T) *core.Predictor {
	t.Helper()
	testEnv.once.Do(func() {
		data, err := core.GenerateCtx(context.Background(), core.DataGenConfig{
			NumGraphs: 8, Nodes: 8, EdgeProb: 0.5,
			MaxDepth: 3, Starts: 2, Tol: 1e-6, Seed: testTrainSeed,
		})
		if err != nil {
			testEnv.err = err
			return
		}
		pred := core.NewPredictor(nil)
		if err := pred.Train(data, []int{0, 1, 2, 3, 4}); err != nil {
			testEnv.err = err
			return
		}
		testEnv.pred = pred
	})
	if testEnv.err != nil {
		t.Fatal(testEnv.err)
	}
	return testEnv.pred
}

// testRegistry returns a registry with the shared predictor as "default".
func testRegistry(t *testing.T) *Registry {
	t.Helper()
	reg, err := NewRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	reg.Register("default", testPredictor(t))
	return reg
}

// newTestServer starts a Server plus an httptest front end, both torn
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// testInstance returns a connected 8-node MaxCut instance (nodes,
// edges) drawn from the paper's ensemble.
func testInstance(seed int64) (int, [][2]int) {
	g := graph.ErdosRenyiConnected(8, 0.5, rand.New(rand.NewSource(seed)))
	var edges [][2]int
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{e.U, e.V})
	}
	return g.N, edges
}

// buildGraph reconstructs the instance graph of a request.
func buildGraph(t *testing.T, nodes int, edges [][2]int) *graph.Graph {
	t.Helper()
	g := graph.New(nodes)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// postSolve submits a solve request and decodes the job view.
func postSolve(t *testing.T, url string, req SolveRequest) (int, JobView) {
	t.Helper()
	code, body := postSolveRaw(t, url, req)
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	return code, view
}

func postSolveRaw(t *testing.T, url string, req SolveRequest) (int, []byte) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// getJob fetches a job view by id.
func getJob(t *testing.T, url, id string) (int, JobView) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, view
}

// pollJob polls until the job is terminal or the deadline passes.
func pollJob(t *testing.T, url, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, view := getJob(t, url, id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if view.State.Terminal() {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, view.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitState polls an in-process job until it reaches want.
func waitState(t *testing.T, job *Job, want JobState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for job.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", job.ID, job.State(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// blockingSolve installs a solveFn that parks jobs until their context
// is cancelled or release is closed; started receives each job as it
// begins running.
func blockingSolve(s *Server, started chan *Job, release chan struct{}) {
	s.solveFn = func(ctx context.Context, job *Job) (*SolveResult, error) {
		select {
		case started <- job:
		default:
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return &SolveResult{Strategy: job.req.Strategy, AR: 1, Fingerprint: "test"}, nil
		}
	}
}

// drainCtx is a background context with a test-scoped timeout.
func drainCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}
