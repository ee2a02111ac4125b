package server

import (
	"context"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

// TestTwoLevelEndToEnd is the PR's acceptance test: an in-process qaoad
// serves an 8-node two-level solve, the job is polled to completion,
// and the result matches the direct core.Solve call bit-for-bit.
// A repeated identical request is then served from the cache with zero
// additional optimizer function evaluations, verified via the
// optimize.fev_total telemetry counter.
func TestTwoLevelEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Registry: testRegistry(t)})
	nodes, edges := testInstance(30)
	const depth = 3
	req := SolveRequest{
		Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: depth,
		Strategy: StrategyTwoLevel, Model: "default",
	}

	// 1. Submit and poll to completion (no wait: exercise the async path).
	code, view := postSolve(t, ts.URL, req)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	final := pollJob(t, ts.URL, view.ID, 60*time.Second)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("final %+v", final)
	}
	if final.Cached {
		t.Fatal("first solve claims to be cached")
	}

	// 2. Direct two-level run with the same seed (default 1), optimizer
	// (lbfgsb at 1e-6) and predictor instance — must agree bit-for-bit.
	g := buildGraph(t, nodes, edges)
	pb, err := qaoa.NewProblem(g)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Solve(context.Background(), pb, core.Options{
		Strategy: core.StrategyTwoLevel, Depth: depth, Optimizer: &optimize.LBFGSB{Tol: 1e-6},
		Predictor: testPredictor(t), Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := final.Result
	if res.AR != direct.AR {
		t.Fatalf("served AR %v != direct %v", res.AR, direct.AR)
	}
	if res.Level1AR != direct.Stages[0].AR {
		t.Fatalf("served level-1 AR %v != direct %v", res.Level1AR, direct.Stages[0].AR)
	}
	if res.NFev != direct.NFev {
		t.Fatalf("served NFev %d != direct %d", res.NFev, direct.NFev)
	}
	if len(res.Gamma) != depth || len(res.Beta) != depth {
		t.Fatalf("served params have %d/%d stages, want %d", len(res.Gamma), len(res.Beta), depth)
	}
	for i := 0; i < depth; i++ {
		if res.Gamma[i] != direct.Params.Gamma[i] || res.Beta[i] != direct.Params.Beta[i] {
			t.Fatalf("stage %d: served (γ,β)=(%v,%v) != direct (%v,%v)",
				i, res.Gamma[i], res.Beta[i], direct.Params.Gamma[i], direct.Params.Beta[i])
		}
	}

	// 3. Identical repeat: a cache hit with zero new optimizer work.
	fevBefore := s.mem.CounterValue("optimize.fev_total")
	code, repeat := postSolve(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("repeat status %d", code)
	}
	if !repeat.Cached || repeat.State != StateDone {
		t.Fatalf("repeat not served from cache: %+v", repeat)
	}
	if repeat.Result == nil || repeat.Result.AR != res.AR {
		t.Fatalf("cached result diverges: %+v", repeat.Result)
	}
	if fevAfter := s.mem.CounterValue("optimize.fev_total"); fevAfter != fevBefore {
		t.Fatalf("cache hit cost %d optimizer evaluations", fevAfter-fevBefore)
	}
	if hits := s.mem.CounterValue("server.cache.hits"); hits != 1 {
		t.Fatalf("cache hits counter %d", hits)
	}

	// 4. A changed option (different seed) misses the cache.
	diff := req
	diff.Seed = 2
	diff.Wait = true
	code, miss := postSolve(t, ts.URL, diff)
	if code != http.StatusOK || miss.Cached {
		t.Fatalf("changed-seed request: status %d, view %+v", code, miss)
	}
	if fevAfter := s.mem.CounterValue("optimize.fev_total"); fevAfter == fevBefore {
		t.Fatal("changed-seed solve did no optimizer work")
	}
}
