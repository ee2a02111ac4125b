package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
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

// The reply bytes do not move: a job view with every field set and a
// batch with an answered, a deduped and a refused item go through
// writeJSON to these exact bodies — HTML-safe escapes, ES6 floats,
// RFC 3339 times at their own zone offset, and the omitempty rules.
func TestReplyWirePinned(t *testing.T) {
	east, west := time.FixedZone("", 5*3600+30*60), time.FixedZone("", -7*3600)
	started := time.Date(2024, 3, 9, 17, 4, 5, 120000000, east)
	finished := time.Date(2024, 3, 9, 4, 34, 6, 987654321, west)
	view := JobView{
		ID: "job-0000002a", State: StateDone, Cached: true, Coalesced: true,
		Result: &SolveResult{
			Strategy: StrategyTwoLevel, Problem: "maxcut", AR: 0.9375,
			Gamma: []float64{0.5, 1e-7}, Beta: []float64{-0.25, 1e21}, NFev: 87,
			Level1AR: 0.75, Objective: -3.5, Assignment: "0110", Fingerprint: "e3b0c442",
		},
		Error:    "a<b & c\u2028d",
		Enqueued: time.Date(2024, 3, 9, 11, 34, 5, 0, time.UTC),
		Started:  &started, Finished: &finished,
	}
	hit := &JobView{ID: "job-1", State: StateDone, Cached: true,
		Result:   &SolveResult{Strategy: StrategyNaive, AR: 1, Gamma: []float64{0.5}, Beta: []float64{0.25}, NFev: 3, Fingerprint: "ab"},
		Enqueued: time.Date(2024, 1, 2, 3, 4, 5, 6, time.UTC)}
	batch := BatchResponse{Items: []BatchItemResult{
		{Code: http.StatusOK, Job: hit},
		{Code: http.StatusOK, Deduped: true, Job: hit},
		{Code: http.StatusBadRequest, Error: `decoding request: json: unknown field "nodez"`},
	}}
	for _, tc := range []struct {
		code int
		v    any
		want string
	}{
		{http.StatusAccepted, view, `{"id":"job-0000002a","state":"done","cached":true,"coalesced":true,` +
			`"result":{"strategy":"two-level","problem":"maxcut","ar":0.9375,"gamma":[0.5,1e-7],"beta":[-0.25,1e+21],"nfev":87,` +
			`"level1_ar":0.75,"objective":-3.5,"assignment":"0110","fingerprint":"e3b0c442"},` +
			`"error":"a\u003cb \u0026 c\u2028d","enqueued":"2024-03-09T11:34:05Z",` +
			`"started":"2024-03-09T17:04:05.12+05:30","finished":"2024-03-09T04:34:06.987654321-07:00"}` + "\n"},
		{http.StatusOK, batch, `{"items":[` +
			`{"code":200,"job":{"id":"job-1","state":"done","cached":true,"result":{"strategy":"naive","ar":1,"gamma":[0.5],"beta":[0.25],"nfev":3,"fingerprint":"ab"},"enqueued":"2024-01-02T03:04:05.000000006Z"}},` +
			`{"code":200,"deduped":true,"job":{"id":"job-1","state":"done","cached":true,"result":{"strategy":"naive","ar":1,"gamma":[0.5],"beta":[0.25],"nfev":3,"fingerprint":"ab"},"enqueued":"2024-01-02T03:04:05.000000006Z"}},` +
			`{"code":400,"error":"decoding request: json: unknown field \"nodez\""}]}` + "\n"},
	} {
		w := httptest.NewRecorder()
		writeJSON(w, tc.code, tc.v)
		if w.Code != tc.code || w.Body.String() != tc.want || w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("status %d (%s) body\n%s\nwant %d\n%s", w.Code, w.Header().Get("Content-Type"), w.Body, tc.code, tc.want)
		}
	}
}
