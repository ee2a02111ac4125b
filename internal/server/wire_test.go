package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// wireGoldenRequests is one request per family with every payload field
// of its family and every solve option set. The fields are assigned,
// not listed in a literal, so the requests read the same whatever
// struct the payload fields are declared in.
func wireGoldenRequests() map[string]SolveRequest {
	opts := func(family string) SolveRequest {
		var r SolveRequest
		r.Problem = family
		r.Depth, r.Strategy, r.Optimizer, r.Model = 3, StrategyNaive, "cobyla", "m1"
		r.Seed, r.TimeoutMs, r.Wait = -7, 2500, true
		return r
	}
	maxcut := opts("maxcut")
	maxcut.Nodes, maxcut.Edges, maxcut.Weights = 3, [][2]int{{0, 1}, {1, 2}}, []float64{1.5, -0.25}

	qubo := opts("qubo")
	qubo.Nodes, qubo.Linear, qubo.Offset, qubo.Sense, qubo.Vars = 3, []float64{0.5, 0, -1}, 2.75, "max", 2
	qubo.Quad = []WireTerm{{I: 0, J: 1, W: -1}, {I: 1, J: 2, W: 0.125}}

	maxksat := opts("maxksat")
	maxksat.Vars, maxksat.Clauses, maxksat.ClauseWeights = 3, [][]int{{1, -2}, {-1, 2, 3}}, []float64{2, 0.5}

	partition := opts("partition")
	partition.Numbers = []float64{3, 1.5, 4}

	portfolio := opts("portfolio")
	portfolio.Returns = []float64{0.1, 0.2, 0.05}
	portfolio.Covariance = [][]float64{{0.2, 0.01, 0}, {0.01, 0.3, -0.02}, {0, -0.02, 0.1}}
	portfolio.RiskAversion, portfolio.Budget, portfolio.Penalty = 0.5, 1, 4

	coloring := opts("coloring")
	coloring.Nodes, coloring.Edges, coloring.Colors = 3, [][2]int{{0, 1}, {1, 2}, {0, 2}}, 3

	return map[string]SolveRequest{
		"maxcut": maxcut, "qubo": qubo, "maxksat": maxksat,
		"partition": partition, "portfolio": portfolio, "coloring": coloring,
	}
}

// wireGolden is json.Marshal of each wireGoldenRequests entry, recorded
// before the payload fields moved into problem.Wire. The bytes are the
// API: clients send them and the job journal stores them.
var wireGolden = map[string]string{
	"maxcut":    `{"problem":"maxcut","nodes":3,"edges":[[0,1],[1,2]],"weights":[1.5,-0.25],"depth":3,"strategy":"naive","optimizer":"cobyla","model":"m1","seed":-7,"timeout_ms":2500,"wait":true}`,
	"qubo":      `{"problem":"qubo","nodes":3,"linear":[0.5,0,-1],"quad":[{"i":0,"j":1,"w":-1},{"i":1,"j":2,"w":0.125}],"offset":2.75,"sense":"max","vars":2,"depth":3,"strategy":"naive","optimizer":"cobyla","model":"m1","seed":-7,"timeout_ms":2500,"wait":true}`,
	"maxksat":   `{"problem":"maxksat","vars":3,"clauses":[[1,-2],[-1,2,3]],"clause_weights":[2,0.5],"depth":3,"strategy":"naive","optimizer":"cobyla","model":"m1","seed":-7,"timeout_ms":2500,"wait":true}`,
	"partition": `{"problem":"partition","numbers":[3,1.5,4],"depth":3,"strategy":"naive","optimizer":"cobyla","model":"m1","seed":-7,"timeout_ms":2500,"wait":true}`,
	"portfolio": `{"problem":"portfolio","returns":[0.1,0.2,0.05],"covariance":[[0.2,0.01,0],[0.01,0.3,-0.02],[0,-0.02,0.1]],"risk_aversion":0.5,"budget":1,"penalty":4,"depth":3,"strategy":"naive","optimizer":"cobyla","model":"m1","seed":-7,"timeout_ms":2500,"wait":true}`,
	"coloring":  `{"problem":"coloring","nodes":3,"edges":[[0,1],[1,2],[0,2]],"colors":3,"depth":3,"strategy":"naive","optimizer":"cobyla","model":"m1","seed":-7,"timeout_ms":2500,"wait":true}`,
}

// The JSON form of a request does not move: same keys, same order,
// same omissions, and the bytes decode back to the request.
func TestSolveRequestWirePinned(t *testing.T) {
	for family, req := range wireGoldenRequests() {
		got, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != wireGolden[family] {
			t.Errorf("%s: wire bytes moved:\n got %s\nwant %s", family, got, wireGolden[family])
		}
		dec := json.NewDecoder(bytes.NewReader(got))
		dec.DisallowUnknownFields()
		var back SolveRequest
		if err := dec.Decode(&back); err != nil || !reflect.DeepEqual(back, req) {
			t.Errorf("%s: decoded %+v (%v), want %+v", family, back, err, req)
		}
	}
}
