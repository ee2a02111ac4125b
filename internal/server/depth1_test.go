package server

import (
	"net/http"
	"testing"

	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

// A depth-1 solve optimizes in closed form and holds no state vector
// until the readout builds one; the assignment it then returns must be
// the one Problem.BestSampled reads at the returned angles, for a
// half-register family (MaxCut) and a fielded one (QUBO) alike.
func TestSolveDepth1ReadoutMatchesBestSampled(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	nodes, edges := testInstance(31)
	for name, req := range map[string]SolveRequest{
		"maxcut": {Problem: problem.FamilyMaxCut, Wire: problem.Wire{Nodes: nodes, Edges: edges}},
		"qubo":   familyRequests()[problem.FamilyQUBO],
	} {
		req.Depth, req.Strategy, req.Wait = 1, StrategyNaive, true
		code, view := postSolve(t, ts.URL, req)
		if code != http.StatusOK || view.State != StateDone || view.Result == nil {
			t.Fatalf("%s: status %d, state %s, error %q", name, code, view.State, view.Error)
		}
		r := view.Result
		if len(r.Gamma) != 1 || len(r.Beta) != 1 || r.NFev < 2 {
			t.Fatalf("%s: not a depth-1 result: %+v", name, r)
		}
		spec, err := req.Wire.Spec(req.Problem, s.cfg.MaxNodes)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := qaoa.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		pr := qaoa.Params{Gamma: r.Gamma, Beta: r.Beta}
		score, assign := pb.BestSampled(pr)
		if want := assignBits(assign, pb.NumQubits()); r.Assignment != want || r.Objective != score {
			t.Errorf("%s: served (%s, %v), Problem.BestSampled (%s, %v)", name, r.Assignment, r.Objective, want, score)
		}
		if want := pb.ApproximationRatio(pr); r.AR < want-1e-12 || r.AR > want+1e-12 {
			t.Errorf("%s: served AR %v, state vector %v", name, r.AR, want)
		}
	}
}
