package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"qaoaml/internal/problem"
)

// TestClientDisconnectCancelsJob covers the originating-client half of
// the mid-job cancellation contract: a wait=true submitter that drops
// the connection aborts the running optimizer via the job context.
func TestClientDisconnectCancelsJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	started := make(chan *Job, 1)
	release := make(chan struct{})
	defer close(release)
	blockingSolve(s, started, release)

	nodes, edges := testInstance(20)
	blob, err := json.Marshal(SolveRequest{
		Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive, Wait: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqCtx, abort := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(reqCtx, http.MethodPost,
		ts.URL+"/v1/solve", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(httpReq)
		errc <- err
	}()

	job := <-started // solve is running and parked on ctx
	abort()          // client walks away
	if err := <-errc; err == nil {
		t.Fatal("request unexpectedly completed")
	}
	waitState(t, job, StateCancelled, 10*time.Second)
	view := job.View()
	if view.Error == "" {
		t.Fatal("cancelled job has no error message")
	}
	// The state turns cancelled in finish, a moment before afterFinish
	// counts it: wait for the count, then require exactly one.
	for deadline := time.Now().Add(5 * time.Second); s.mem.CounterValue("server.jobs.cancelled") == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := s.mem.CounterValue("server.jobs.client_disconnects"); got != 1 {
		t.Fatalf("client_disconnects counter %d", got)
	}
	if got := s.mem.CounterValue("server.jobs.cancelled"); got != 1 {
		t.Fatalf("cancelled counter %d", got)
	}
}

// TestDeadlineCancelsRunningJob covers the per-job deadline half: a
// timeout_ms budget expires mid-solve and the job finishes cancelled
// with the deadline recorded as the cause.
func TestDeadlineCancelsRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	started := make(chan *Job, 1)
	release := make(chan struct{})
	defer close(release)
	blockingSolve(s, started, release)

	nodes, edges := testInstance(21)
	_, view := postSolve(t, ts.URL, SolveRequest{
		Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive, TimeoutMs: 50,
	})
	job := <-started
	if job.ID != view.ID {
		t.Fatalf("started %s, submitted %s", job.ID, view.ID)
	}
	final := pollJob(t, ts.URL, view.ID, 10*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", final.State)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", final.Error)
	}
}

// TestDeadlineAbortsRealOptimizer drives the real optimizer (no fake):
// a deadline far below the solve time must abort L-BFGS-B through the
// context seam and surface as a cancelled job.
func TestDeadlineAbortsRealOptimizer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxNodes: 18})
	// 16 qubits at depth 8: L-BFGS-B takes ≈ 60 evaluations and far
	// longer than 5ms on this random graph, so the deadline must fire
	// mid-optimization. (Not the complete graph: from this seed's start
	// L-BFGS-B converges there after two evaluations, at a point
	// equivalent to γ = 0 where the gradient vanishes — inside 5ms on a
	// fast host.)
	nodes, edges := randomEdges(16, 22)
	code, view := postSolve(t, ts.URL, SolveRequest{
		Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 8, Strategy: StrategyNaive,
		TimeoutMs: 5, Wait: true,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if view.State != StateCancelled {
		t.Fatalf("state %s, want cancelled (result %+v)", view.State, view.Result)
	}
}

// TestHugeTimeoutCapsAtMaxTimeout: a timeout_ms whose Duration in
// nanoseconds overflows int64 (2^62 wraps to 0, 9.3e12 to a negative
// duration) is capped at MaxTimeout like any other large value, so the
// job runs to completion instead of expiring at once.
func TestHugeTimeoutCapsAtMaxTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	nodes, edges := testInstance(23)
	for i, ms := range []int64{1 << 62, 9.3e12} {
		code, view := postSolve(t, ts.URL, SolveRequest{
			Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive,
			Seed: int64(i + 1), TimeoutMs: ms, Wait: true,
		})
		if code != http.StatusOK || view.State != StateDone {
			t.Errorf("timeout_ms=%d: status %d, state %s (%s), want done", ms, code, view.State, view.Error)
		}
	}
}

// TestQueuedJobCancelledBeforeWorker exercises the queued-cancellation
// watcher: a job whose deadline fires while it is still waiting for a
// worker slot finishes cancelled without ever running.
func TestQueuedJobCancelledBeforeWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	started := make(chan *Job, 1)
	release := make(chan struct{})
	blockingSolve(s, started, release)

	nodes, edges := testInstance(23)
	// Occupy the only worker.
	postSolve(t, ts.URL, SolveRequest{
		Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive, Seed: 1,
	})
	blocker := <-started
	// This one never reaches a worker before its 30ms deadline.
	_, queued := postSolve(t, ts.URL, SolveRequest{
		Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive, Seed: 2, TimeoutMs: 30,
	})
	final := pollJob(t, ts.URL, queued.ID, 10*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("queued job state %s, want cancelled", final.State)
	}
	if final.Started != nil {
		t.Fatal("cancelled-while-queued job reports a start time")
	}
	close(release)
	waitState(t, blocker, StateDone, 10*time.Second)
}

// TestDeleteCancelsJob covers the explicit DELETE /v1/jobs/{id} path.
func TestDeleteCancelsJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	started := make(chan *Job, 1)
	release := make(chan struct{})
	defer close(release)
	blockingSolve(s, started, release)

	nodes, edges := testInstance(24)
	_, view := postSolve(t, ts.URL, SolveRequest{
		Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive,
	})
	<-started
	httpReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+view.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	final := pollJob(t, ts.URL, view.ID, 10*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", final.State)
	}

	// DELETE on an unknown id is a 404.
	httpReq, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-00009999", nil)
	resp, err = http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown id: status %d", resp.StatusCode)
	}
}
