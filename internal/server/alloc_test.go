package server

import (
	"math/rand"
	"net/http"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/quantum"
)

// TestSteadyStateAllocatesNoAmplitudes is the serving-layer zero-alloc
// pin for workspace pooling: after the worker's arena is warm, whole
// solve requests — optimizer run, adjoint gradients, readout — must
// allocate zero bytes of amplitude (state-vector) storage. Distinct
// instances defeat the result cache so every request really solves;
// n >= StreamingThreshold keeps the per-problem cost table virtual so
// the only 2^n buffers in play are the pooled state vectors.
func TestSteadyStateAllocatesNoAmplitudes(t *testing.T) {
	const n = qaoa.StreamingThreshold + 1
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, MaxNodes: n})

	instance := func(seed int64) SolveRequest {
		g := graph.ErdosRenyiConnected(n, 0.4, rand.New(rand.NewSource(seed)))
		var edges [][2]int
		for _, e := range g.Edges() {
			edges = append(edges, [2]int{e.U, e.V})
		}
		return SolveRequest{Wire: problem.Wire{Nodes: n, Edges: edges}, Depth: 2,
			Strategy: StrategyNaive, Seed: seed, Wait: true}
	}
	solve := func(seed int64) {
		t.Helper()
		code, view := postSolve(t, ts.URL, instance(seed))
		if code != http.StatusOK || view.State != StateDone {
			t.Fatalf("seed %d: status %d state %s (%s)", seed, code, view.State, view.Error)
		}
	}

	// Warm-up: populate the worker arena (forward state, adjoint, and
	// the readout evaluator's buffer all get pooled on first use).
	for seed := int64(1); seed <= 2; seed++ {
		solve(seed)
	}

	before := quantum.AmpBytesAllocated()
	for seed := int64(10); seed < 15; seed++ {
		solve(seed)
	}
	if delta := quantum.AmpBytesAllocated() - before; delta != 0 {
		t.Fatalf("steady-state requests allocated %d bytes of amplitude storage, want 0 "+
			"(a state-vector buffer escaped the worker arena)", delta)
	}
}
