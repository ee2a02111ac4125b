package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"qaoaml/internal/problem"
	"qaoaml/internal/quantum"
)

// familyRequests builds one small solvable request per non-MaxCut
// family (naive strategy so no trained model is needed).
func familyRequests() map[string]SolveRequest {
	return map[string]SolveRequest{
		problem.FamilyQUBO: {
			Problem: "qubo", Wire: problem.Wire{
				Nodes:  6,
				Linear: []float64{1, -1, 0, 1, 0, -1},
				Quad: []WireTerm{
					{I: 0, J: 1, W: 1}, {I: 1, J: 2, W: -1}, {I: 2, J: 3, W: 1},
					{I: 3, J: 4, W: -1}, {I: 4, J: 5, W: 1}, {I: 0, J: 5, W: -1},
				},
			},
			Depth: 2, Strategy: StrategyNaive, Wait: true,
		},
		problem.FamilyMaxKSAT: {
			Problem: "maxksat", Wire: problem.Wire{
				Vars:    5,
				Clauses: [][]int{{1, -2}, {2, 3}, {-3, 4}, {4, 5}, {-1, -5}},
			},
			Depth: 2, Strategy: StrategyNaive, Wait: true,
		},
		problem.FamilyPartition: {
			Problem: "partition", Wire: problem.Wire{Numbers: []float64{4, 5, 6, 7, 8}},
			Depth: 2, Strategy: StrategyNaive, Wait: true,
		},
		problem.FamilyPortfolio: {
			Problem: "portfolio",
			Wire: problem.Wire{
				Returns: []float64{0.12, 0.1, 0.07, 0.03},
				Covariance: [][]float64{
					{0.20, 0.02, 0.01, 0.00},
					{0.02, 0.30, 0.03, 0.01},
					{0.01, 0.03, 0.25, 0.02},
					{0.00, 0.01, 0.02, 0.18},
				},
				RiskAversion: 0.5, Budget: 2,
			},
			Depth: 2, Strategy: StrategyNaive, Wait: true,
		},
		problem.FamilyColoring: {
			Problem: "coloring", Wire: problem.Wire{
				Nodes:  4,
				Edges:  [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}},
				Colors: 2,
			},
			Depth: 2, Strategy: StrategyNaive, Wait: true,
		},
	}
}

// Every non-MaxCut family must solve end-to-end over the wire, return
// a sane normalized AR with a masked assignment, and serve the exact
// same result from the cache on an identical repeat.
func TestSolveFamiliesEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxNodes: 12})
	for fam, req := range familyRequests() {
		code, view := postSolve(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%+v)", fam, code, view)
		}
		if view.State != StateDone || view.Result == nil {
			t.Fatalf("%s: state %s, error %q", fam, view.State, view.Error)
		}
		r := view.Result
		if r.Problem != fam {
			t.Errorf("%s: result problem %q", fam, r.Problem)
		}
		if r.AR < -1e-12 || r.AR > 1+1e-12 {
			t.Errorf("%s: AR %v out of [0, 1]", fam, r.AR)
		}
		if r.Assignment == "" || strings.Trim(r.Assignment, "01") != "" {
			t.Errorf("%s: bad assignment %q", fam, r.Assignment)
		}
		if fam == problem.FamilyMaxKSAT && len(r.Assignment) != 5 {
			t.Errorf("maxksat: assignment %q not masked to 5 decision vars", r.Assignment)
		}
		if r.Fingerprint == "" {
			t.Errorf("%s: empty fingerprint", fam)
		}

		code2, view2 := postSolve(t, ts.URL, req)
		if code2 != http.StatusOK || !view2.Cached {
			t.Fatalf("%s: repeat not served from cache (status %d, cached %v)", fam, code2, view2.Cached)
		}
		a, _ := json.Marshal(view.Result)
		b, _ := json.Marshal(view2.Result)
		if string(a) != string(b) {
			t.Errorf("%s: cached result differs:\n%s\n%s", fam, a, b)
		}
	}
}

// Two QUBO instances over the same coupling graph but different linear
// terms / offset / sense must never alias in the cache: the instance
// fingerprint covers all of them.
func TestSolveKeyCoversFullInstance(t *testing.T) {
	base := familyRequests()[problem.FamilyQUBO]
	mutate := []func(r *SolveRequest){
		func(r *SolveRequest) { r.Linear = []float64{0, 0, 0, 0, 0, 1} },
		func(r *SolveRequest) { r.Offset = 3 },
		func(r *SolveRequest) { r.Sense = "max" },
		func(r *SolveRequest) { r.Vars = 4 },
	}
	_, ts := newTestServer(t, Config{Workers: 2, MaxNodes: 12})
	_, baseView := postSolve(t, ts.URL, base)
	if baseView.State != StateDone {
		t.Fatalf("base solve failed: %q", baseView.Error)
	}
	for i, mut := range mutate {
		req := base
		mut(&req)
		code, view := postSolve(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("mutation %d: status %d (%+v)", i, code, view)
		}
		if view.Cached {
			t.Errorf("mutation %d aliased the base instance in the cache", i)
		}
	}
	// Sanity: the unmutated request does alias.
	if _, view := postSolve(t, ts.URL, base); !view.Cached {
		t.Error("identical repeat missed the cache")
	}
}

// The validation table for the versioned schema: unknown JSON keys,
// cross-family payload fields and malformed per-family payloads all
// return clear 400s.
func TestSolveFamilyValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxNodes: 12})
	qubo := familyRequests()[problem.FamilyQUBO]

	t.Run("unknown-json-key", func(t *testing.T) {
		blob := `{"problem":"partition","numbers":[1,2,3,4],"depth":1,"strategy":"naive","nmbers":[1]}`
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})

	cases := []struct {
		name    string
		mutate  func(r *SolveRequest)
		wantMsg string
	}{
		{"unknown-family", func(r *SolveRequest) { r.Problem = "tsp" }, "unknown problem"},
		{"cross-family-field", func(r *SolveRequest) { r.Numbers = []float64{1, 2} }, "not valid for problem"},
		{"maxcut-with-clauses", func(r *SolveRequest) { r.Problem = ""; r.Clauses = [][]int{{1}} }, "not valid for problem"},
		{"bad-sense", func(r *SolveRequest) { r.Sense = "sideways" }, "unknown sense"},
		{"bad-term-index", func(r *SolveRequest) { r.Quad = []WireTerm{{I: 0, J: 9, W: 1}} }, ""},
		{"vars-over-register", func(r *SolveRequest) { r.Vars = 7 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := qubo
			tc.mutate(&req)
			code, body := postSolveRaw(t, ts.URL, req)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", code, body)
			}
			if tc.wantMsg != "" && !strings.Contains(string(body), tc.wantMsg) {
				t.Errorf("error %s does not mention %q", body, tc.wantMsg)
			}
		})
	}

	t.Run("register-cap-counts-aux", func(t *testing.T) {
		// 5 vars + 8 three-literal clauses = 13 qubits > MaxNodes 12.
		req := SolveRequest{
			Problem: "maxksat", Depth: 1, Strategy: StrategyNaive,
			Wire: problem.Wire{Vars: 5, Clauses: [][]int{
				{1, 2, 3}, {1, 2, 4}, {1, 2, 5}, {1, 3, 4},
				{1, 3, 5}, {1, 4, 5}, {2, 3, 4}, {2, 3, 5},
			}},
		}
		code, body := postSolveRaw(t, ts.URL, req)
		if code != http.StatusBadRequest || !strings.Contains(string(body), "qubits") {
			t.Fatalf("status %d body %s, want 400 mentioning qubits", code, body)
		}
	})

	t.Run("coloring-rejects-weights", func(t *testing.T) {
		req := familyRequests()[problem.FamilyColoring]
		req.Weights = []float64{1, 1, 1, 1}
		code, body := postSolveRaw(t, ts.URL, req)
		if code != http.StatusBadRequest {
			t.Fatalf("status %d (%s), want 400", code, body)
		}
	})
}

// A v1 body (plain MaxCut, no problem field) must behave exactly as
// before the schema version bump, including two-level solving against
// a registered model.
func TestLegacyMaxCutBodyUnchanged(t *testing.T) {
	nodes, edges := testInstance(21)
	_, ts := newTestServer(t, Config{Workers: 2, Registry: testRegistry(t)})
	req := SolveRequest{
		Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 3,
		Seed: int64(3), Wait: true,
	}
	code, view := postSolve(t, ts.URL, req)
	if code != http.StatusOK || view.State != StateDone {
		t.Fatalf("status %d state %s error %q", code, view.State, view.Error)
	}
	if view.Result.Strategy != StrategyTwoLevel {
		t.Errorf("default strategy %q, want two-level", view.Result.Strategy)
	}
	if view.Result.Problem != problem.FamilyMaxCut {
		t.Errorf("legacy body resolved to problem %q", view.Result.Problem)
	}
	if len(view.Result.Assignment) != nodes {
		t.Errorf("assignment %q, want %d bits", view.Result.Assignment, nodes)
	}
}

// The healthz document must advertise the schema version, the
// supported problem families and which butterfly body this process runs
// (a worker without AVX2 returns the same bits, slower).
func TestHealthzAdvertisesSchema(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		APIVersion int      `json:"api_version"`
		Problems   []string `json:"problems"`
		Kernel     string   `json:"kernel"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.APIVersion != APIVersion {
		t.Errorf("api_version %d, want %d", doc.APIVersion, APIVersion)
	}
	if len(doc.Problems) != len(problem.Families()) {
		t.Errorf("problems %v, want %v", doc.Problems, problem.Families())
	}
	if k := doc.Kernel; k != quantum.Kernel() || (k != "avx512" && k != "avx2" && k != "go") {
		t.Errorf("kernel %q, want %q (avx512, avx2 or go)", k, quantum.Kernel())
	}
}

// Determinism across servers: the same family request on a fresh
// server must produce the identical result (the cache-exactness
// premise).
func TestFamilySolveDeterministicAcrossServers(t *testing.T) {
	req := familyRequests()[problem.FamilyPartition]
	req.Seed = 7
	_, ts1 := newTestServer(t, Config{Workers: 1, MaxNodes: 12})
	_, ts2 := newTestServer(t, Config{Workers: 1, MaxNodes: 12})
	_, v1 := postSolve(t, ts1.URL, req)
	_, v2 := postSolve(t, ts2.URL, req)
	if v1.State != StateDone || v2.State != StateDone {
		t.Fatalf("states %s / %s", v1.State, v2.State)
	}
	a, _ := json.Marshal(v1.Result)
	b, _ := json.Marshal(v2.Result)
	if string(a) != string(b) {
		t.Errorf("cross-server results differ:\n%s\n%s", a, b)
	}
}
