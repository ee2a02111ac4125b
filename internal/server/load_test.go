package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"qaoaml/internal/problem"
)

// TestConcurrentLoadAndDrain is the smoke-load check wired into CI: 64
// concurrent wait=true naive solves on distinct 8-node instances, all of
// which must finish done (no drops), followed by a clean drain that
// leaves the queue-depth gauge at zero.
func TestConcurrentLoadAndDrain(t *testing.T) {
	const clients = 64
	s, ts := newTestServer(t, Config{Workers: 8, QueueDepth: 2 * clients, MaxJobs: 2 * clients})

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			nodes, edges := testInstance(100 + seed)
			code, view := postSolve(t, ts.URL, SolveRequest{
				Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1,
				Strategy: StrategyNaive, Seed: seed, Wait: true,
			})
			if code != 200 {
				errs <- fmt.Errorf("seed %d: status %d (%+v)", seed, code, view)
				return
			}
			if view.State != StateDone || view.Result == nil {
				errs <- fmt.Errorf("seed %d: state %s", seed, view.State)
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	if done := s.mem.CounterValue("server.jobs.done"); done != clients {
		t.Fatalf("done counter %d, want %d", done, clients)
	}
	if sub := s.mem.CounterValue("server.jobs.submitted"); sub != clients {
		t.Fatalf("submitted counter %d, want %d (dropped or duplicated jobs)", sub, clients)
	}

	if err := s.Drain(drainCtx(t, 30*time.Second)); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if depth := s.mem.CounterValue("server.queue.depth"); depth != 0 {
		t.Fatalf("queue depth gauge %d after drain", depth)
	}
	if running := s.mem.CounterValue("server.jobs.running"); running != 0 {
		t.Fatalf("running gauge %d after drain", running)
	}
}

// TestDrainFinishesQueuedJobs verifies drain semantics under a backlog:
// jobs already accepted keep running to completion — drain never drops
// queued work.
func TestDrainFinishesQueuedJobs(t *testing.T) {
	const backlog = 12
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: backlog, MaxJobs: backlog})
	nodes, edges := testInstance(200)
	var ids []string
	for seed := int64(1); seed <= backlog; seed++ {
		code, view := postSolve(t, ts.URL, SolveRequest{
			Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive, Seed: seed,
		})
		if code != 202 && code != 200 {
			t.Fatalf("seed %d: status %d", seed, code)
		}
		ids = append(ids, view.ID)
	}
	if err := s.Drain(drainCtx(t, 60*time.Second)); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		job, ok := s.jobs.get(id)
		if !ok {
			t.Fatalf("job %s dropped during drain", id)
		}
		if st := job.State(); st != StateDone {
			t.Fatalf("job %s finished drain in state %s", id, st)
		}
	}
}
