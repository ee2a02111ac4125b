package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"qaoaml/internal/problem"
)

// A solve key is persistent state: WAL accepted records carry it, WAL
// recovery seeds the cache under it, and a coordinator upgraded between
// an accept and its replay must still find the entry, so the literal
// below must never move.
func TestSolveKeyPinned(t *testing.T) {
	s := New(Config{Workers: 1, MaxNodes: 12, Registry: testRegistry(t)})
	defer s.Close()
	req := SolveRequest{
		Problem: "maxksat", Wire: problem.Wire{
			Vars:    5,
			Clauses: [][]int{{1, -2}, {2, 3}, {-3, 4}, {4, 5}, {-1, -5}},
		},
		Depth: 3, Optimizer: "neldermead", Seed: -9007199254740993,
		// Not part of the key: deadlines and wait mode change whether a
		// solve finishes, never what it computes.
		TimeoutMs: 1234, Wait: true,
	}
	// Strategy and model are left empty: the key carries what normalize
	// resolves them to ("two-level", "default").
	rs, herr := s.normalize(&req)
	if herr != nil {
		t.Fatal(herr)
	}
	fp := rs.inst.Fingerprint()
	if fp != rs.fp {
		t.Fatalf("normalize resolved fingerprint %s, inst.Fingerprint() = %s", rs.fp, fp)
	}
	const want = "5147a563a1f5fd37576ee4348ca5728d17670865d5fabba158eb2bfaec3a9d81|f=maxksat|p=3|s=two-level|o=neldermead|m=default|seed=-9007199254740993"
	if got := solveKey(fp, &req); got != want || rs.key != want {
		t.Errorf("solve key moved:\n     got %s\nresolved %s\n    want %s", got, rs.key, want)
	}
}

// rejectCase is one request normalize must refuse, with the status and
// message it refused it with at the commit before normalize began
// handing its compiled instance on. wire is false where JSON cannot
// carry the payload (NaN), so only Resubmit reaches it.
type rejectCase struct {
	name string
	req  SolveRequest
	wire bool
	msg  string
}

func rejectCases() []rejectCase {
	naive := func(r SolveRequest) SolveRequest {
		r.Strategy = StrategyNaive
		if r.Depth == 0 {
			r.Depth = 2
		}
		return r
	}
	ring := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	partition := SolveRequest{Problem: "partition", Wire: problem.Wire{Numbers: []float64{4, 5, 6, 7}}}
	cubes := [][]int{
		{1, 2, 3}, {1, 2, 4}, {1, 2, 5}, {1, 3, 4},
		{1, 3, 5}, {1, 4, 5}, {2, 3, 4}, {2, 3, 5},
	}
	with := func(r SolveRequest, mutate func(*SolveRequest)) SolveRequest {
		mutate(&r)
		return r
	}
	return []rejectCase{
		{"unknown-family", naive(SolveRequest{Problem: "tsp", Wire: problem.Wire{Nodes: 4}}), true, "unknown problem \"tsp\" (want one of [maxcut qubo maxksat partition portfolio coloring])"},
		{"foreign-field", naive(with(partition, func(r *SolveRequest) { r.Clauses = [][]int{{1}} })), true, "field \"clauses\" is not valid for problem \"partition\""},
		{"depth-zero", with(naive(partition), func(r *SolveRequest) { r.Depth = 0 }), true, "depth 0 out of [1, 10]"},
		{"depth-over-max", with(naive(partition), func(r *SolveRequest) { r.Depth = 11 }), true, "depth 11 out of [1, 10]"},
		{"unknown-optimizer", with(naive(partition), func(r *SolveRequest) { r.Optimizer = "adam" }), true, "unknown optimizer \"adam\" (want lbfgsb, neldermead, slsqp or cobyla)"},
		{"unknown-strategy", with(naive(partition), func(r *SolveRequest) { r.Strategy = "annealing" }), true, "unknown strategy \"annealing\" (want \"naive\" or \"two-level\")"},
		{"maxksat-aux-over-cap", naive(SolveRequest{Problem: "maxksat", Wire: problem.Wire{Vars: 5, Clauses: cubes}}), true, "maxksat instance needs 13 qubits, out of [2, 12]"},
		{"coloring-over-cap", naive(SolveRequest{Problem: "coloring", Wire: problem.Wire{Nodes: 4, Edges: ring, Colors: 4}}), true, "coloring instance needs 16 qubits, out of [2, 12]"},
		{"qubo-one-qubit", naive(SolveRequest{Problem: "qubo", Wire: problem.Wire{Nodes: 1, Linear: []float64{1}}}), true, "qubo instance needs 1 qubits, out of [2, 12]"},
		{"zero-weight", naive(SolveRequest{Wire: problem.Wire{Nodes: 4, Edges: ring, Weights: []float64{1, 0, 1, 1}}}), true, "edge 1: graph: invalid edge weight 0 on (1,2)"},
		{"nan-field", naive(SolveRequest{Problem: "qubo", Wire: problem.Wire{
			Nodes: 3, Linear: []float64{math.NaN(), 0, 1},
			Quad: []WireTerm{{I: 0, J: 1, W: 1}},
		}}), false, "problem: non-finite linear term h[0] = NaN"},
		// Each coefficient finite, their sum not: no worker could solve it.
		{"maxcut-weights-overflow", naive(SolveRequest{Wire: problem.Wire{Nodes: 4, Edges: ring, Weights: []float64{1e308, 1e308, 1e308, 1e308}}}), true, "edge weights overflow: Σ|w| is not finite"},
		// Each Σ|w| finite, its square not: the compile in normalize
		// refuses it, as it does the same coefficients sent as a qubo.
		{"maxcut-coefficients-too-large", naive(SolveRequest{Wire: problem.Wire{Nodes: 4, Edges: ring, Weights: []float64{1e200, 1e200, 1e200, 1e200}}}), true,
			"problem: coefficients too large: |offset| + Σ|h| + Σ|J| = 3.999999999999999e+200 exceeds 1.341e+154, past which the gradient overflows"},
		// Every cut of it weighs ≤ 0: no ratio ⟨C⟩/C_opt exists.
		{"maxcut-no-positive-weight", naive(SolveRequest{Wire: problem.Wire{Nodes: 4, Edges: ring, Weights: []float64{-1, -1, -1, -1}}}), true,
			"problem: graph with no positive edge weight has no positive cut"},
		{"qubo-coefficients-overflow", naive(SolveRequest{Problem: "qubo", Wire: problem.Wire{
			Nodes: 3, Linear: []float64{1e308, 1e308, 0},
			Quad: []WireTerm{{I: 0, J: 1, W: 1e308}},
		}}), true, "problem: coefficients overflow: |offset| + Σ|h| + Σ|J| is not finite"},
		{"nan-number", naive(SolveRequest{Problem: "partition", Wire: problem.Wire{Numbers: []float64{1, math.NaN(), 3}}}), false, "problem: invalid number[1] = NaN"},
		{"literal-out-of-range", naive(SolveRequest{Problem: "maxksat", Wire: problem.Wire{Vars: 3, Clauses: [][]int{{1, -2}, {2, 7}}}}), true, "problem: clause 1 literal 7 out of range for 3 variables"},
		{"ragged-covariance", naive(SolveRequest{Problem: "portfolio", Wire: problem.Wire{
			Returns:    []float64{0.1, 0.2, 0.3},
			Covariance: [][]float64{{0.2, 0, 0}, {0, 0.2}, {0, 0, 0.2}}, RiskAversion: 0.5, Budget: 1,
		}}), true, "problem: covariance row 1 has 2 entries for 3 assets"},
		{"two-level-depth-1", with(partition, func(r *SolveRequest) { r.Depth = 1 }), true, "two-level needs depth >= 2 (use strategy \"naive\" for depth 1)"},
		{"unknown-model", with(partition, func(r *SolveRequest) { r.Depth = 2; r.Model = "nope" }), true, "unknown model \"nope\" (registered: [default])"},
		{"untrained-depth", with(partition, func(r *SolveRequest) { r.Depth = 9 }), true, "model \"default\" not trained for target depth 9 (trained: [2 3])"},
		// Order: optimizer, depth, family, payload, width, compile, strategy.
		{"order-optimizer-first", SolveRequest{Problem: "tsp", Optimizer: "adam"}, true, "unknown optimizer \"adam\" (want lbfgsb, neldermead, slsqp or cobyla)"},
		{"order-depth-before-family", SolveRequest{Problem: "tsp"}, true, "depth 0 out of [1, 10]"},
		{"order-cap-before-model", SolveRequest{Problem: "coloring", Wire: problem.Wire{Nodes: 4, Edges: ring, Colors: 4},
			Depth: 2, Model: "nope"}, true, "coloring instance needs 16 qubits, out of [2, 12]"},
		{"order-compile-before-model", SolveRequest{Problem: "maxksat", Wire: problem.Wire{Vars: 3, Clauses: [][]int{{9}}},
			Depth: 2, Model: "nope"}, true, "problem: clause 0 literal 9 out of range for 3 variables"},
		// Negating the literal to range-check it left it negative, and the
		// compiler then indexed qubit MaxInt64.
		{"literal-min-int", naive(SolveRequest{Problem: "maxksat", Wire: problem.Wire{Vars: 3, Clauses: [][]int{{math.MinInt64, 1}}}}), true,
			"problem: clause 0 literal -9223372036854775808 out of range for 3 variables"},
		// nodes·colors wrapped around to 4, a width under the cap.
		{"coloring-width-overflow", naive(SolveRequest{Problem: "coloring", Wire: problem.Wire{Nodes: 4, Edges: ring, Colors: 1<<62 + 1}}), true,
			"problem: coloring of 4 nodes with 4611686018427387905 colors overflows the register width"},
	}
}

// Nothing about rejection changed: every refusal keeps its status code,
// its message and its place in the order of checks on all three ways
// into normalize — POST /v1/solve, an item of POST /v1/solve/batch, and
// WAL recovery's Resubmit.
func TestRejectTable(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxNodes: 12, Registry: testRegistry(t)})
	cases := rejectCases()
	var items []SolveRequest
	var wired []rejectCase
	for _, tc := range cases {
		_, err := s.Resubmit(tc.req)
		herr, ok := err.(*httpError)
		if !ok || herr.code != http.StatusBadRequest || herr.msg != tc.msg {
			t.Errorf("%s: Resubmit:\n got %v\nwant %s", tc.name, err, tc.msg)
		}
		if !tc.wire {
			continue
		}
		code, body := postSolveRaw(t, ts.URL, tc.req)
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("%s: decoding %q: %v", tc.name, body, err)
		}
		if code != http.StatusBadRequest || doc.Error != tc.msg {
			t.Errorf("%s: /v1/solve status %d\n got %q\nwant %q", tc.name, code, doc.Error, tc.msg)
		}
		items = append(items, tc.req)
		wired = append(wired, tc)
	}
	// The same requests as items of one batch, between two good items
	// that must be unaffected.
	good := SolveRequest{Problem: "partition", Wire: problem.Wire{Numbers: []float64{4, 5, 6, 7, 8}}, Depth: 1, Strategy: StrategyNaive}
	items = append(append([]SolveRequest{good}, items...), good)
	s2, ts2 := newTestServer(t, Config{Workers: 1, MaxNodes: 12, Registry: testRegistry(t)})
	code, br := postBatch(t, ts2.URL, BatchRequest{Items: items})
	if code != http.StatusOK || len(br.Items) != len(items) {
		t.Fatalf("batch: status %d, %d items", code, len(br.Items))
	}
	for i, tc := range wired {
		got := br.Items[i+1]
		if got.Code != http.StatusBadRequest || got.Error != tc.msg || got.Job != nil {
			t.Errorf("%s: batch item code %d job %v\n got %q\nwant %q", tc.name, got.Code, got.Job, got.Error, tc.msg)
		}
	}
	first, last := br.Items[0], br.Items[len(items)-1]
	if first.Code != http.StatusOK || first.Job == nil || first.Job.State != StateDone {
		t.Errorf("good item before the rejections: %+v", first)
	}
	if last.Code != http.StatusOK || !last.Deduped || !reflect.DeepEqual(last.Job.Result, first.Job.Result) {
		t.Errorf("good item after the rejections: %+v", last)
	}
	if n := s2.Metrics().Snapshot().Counters["server.jobs.submitted"]; n != 1 {
		t.Errorf("%d jobs submitted by a batch with one distinct valid item", n)
	}

	// A body is one JSON value: a valid request followed by a second one
	// or by garbage is refused whole on both endpoints, never solved as
	// its first value alone.
	one, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(BatchRequest{Items: []SolveRequest{good}})
	if err != nil {
		t.Fatal(err)
	}
	const trailing = "decoding request: trailing data after the JSON value"
	for _, row := range []struct{ path, body string }{
		{"/v1/solve", string(one) + string(one)},
		{"/v1/solve", string(one) + " x"},
		{"/v1/solve", string(one) + "\n{"},
		{"/v1/solve/batch", string(batch) + string(batch)},
		{"/v1/solve/batch", string(batch) + "]"},
	} {
		resp, err := http.Post(ts.URL+row.path, "application/json", strings.NewReader(row.body))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Error string `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if derr != nil || resp.StatusCode != http.StatusBadRequest || doc.Error != trailing {
			t.Errorf("%s %q: status %d, error %q (%v), want 400 %q", row.path, row.body, resp.StatusCode, doc.Error, derr, trailing)
		}
	}
	if n := s.Metrics().Snapshot().Counters["server.jobs.submitted"]; n != 0 {
		t.Errorf("%d jobs submitted by requests with trailing data", n)
	}
}

// The coloring register cap is arithmetic (nodes·colors): an oversized
// request is refused before its one-hot instance — nodes·colors²/2
// couplings — is built. 4 × 200 colors compiles to ≈ 80k terms; refusing
// it must cost no more than a handful of small allocations.
func TestRejectColoringWithoutCompiling(t *testing.T) {
	s := New(Config{Workers: 1, MaxNodes: 12})
	defer s.Close()
	req := SolveRequest{Problem: "coloring", Wire: problem.Wire{
		Nodes: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}},
		Colors: 200,
	}, Depth: 1, Strategy: StrategyNaive}
	allocs := testing.AllocsPerRun(5, func() {
		r := req
		if _, herr := s.normalize(&r); herr == nil || herr.msg != "coloring instance needs 800 qubits, out of [2, 12]" {
			t.Fatalf("normalize: %v", herr)
		}
	})
	if allocs > 40 {
		t.Errorf("refusing an oversized coloring request cost %.0f allocations: the instance was built", allocs)
	}
}

// So is the partition cap (one qubit per number): 20,000 numbers would
// compile to 2·10⁸ couplings, 4.8 GB, before the cap was read. The
// refusal keeps the message the cap gave after that compile and
// allocates well under a megabyte.
func TestRejectPartitionWithoutCompiling(t *testing.T) {
	s := New(Config{Workers: 1, MaxNodes: 12})
	defer s.Close()
	req := SolveRequest{Problem: "partition", Wire: problem.Wire{Numbers: make([]float64, 20000)}, Depth: 1, Strategy: StrategyNaive}
	for i := range req.Numbers {
		req.Numbers[i] = float64(1 + i%97)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, herr := s.normalize(&req)
	runtime.ReadMemStats(&after)
	if herr == nil || herr.code != http.StatusBadRequest || herr.msg != "partition instance needs 20000 qubits, out of [2, 12]" {
		t.Fatalf("normalize: %v", herr)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
		t.Errorf("refusing a 20,000-number partition request allocated %d bytes: the instance was built", b)
	}
}

// identityRequests is one solvable request per family, all six.
func identityRequests() map[string]SolveRequest {
	reqs := familyRequests()
	nodes, edges := testInstance(11)
	reqs[problem.FamilyMaxCut] = SolveRequest{Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 2, Strategy: StrategyNaive}
	for fam, r := range reqs {
		r.Wait = false
		r.Seed = 5
		reqs[fam] = r
	}
	return reqs
}

// One request, five ways to be answered — solved alone, coalesced onto
// the job in flight, served from the cache, as a batch item and as that
// item's intra-batch duplicate — and every answer is the same result,
// stamped with the fingerprint problem.Spec.Fingerprint computes for the
// instance: the identity normalize hands on is the one every earlier
// binary derived stage by stage.
func TestRequestIdentityAcrossRoutes(t *testing.T) {
	for fam, req := range identityRequests() {
		t.Run(fam, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, MaxNodes: 12})
			gate := make(chan struct{})
			s.solveFn = func(ctx context.Context, job *Job) (*SolveResult, error) {
				<-gate
				return s.runSolve(ctx, job)
			}
			spec, err := req.Wire.Spec(fam, s.cfg.MaxNodes)
			if err != nil {
				t.Fatal(err)
			}
			wantFP, err := spec.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}

			code, first := postSolve(t, ts.URL, req)
			if code != http.StatusAccepted || first.State.Terminal() {
				t.Fatalf("first submit: status %d state %s (%s)", code, first.State, first.Error)
			}
			code, second := postSolve(t, ts.URL, req)
			if code != http.StatusAccepted || !second.Coalesced || second.ID != first.ID {
				t.Fatalf("second submit: status %d coalesced %v id %s, want %s", code, second.Coalesced, second.ID, first.ID)
			}
			close(gate)
			solved := pollJob(t, ts.URL, first.ID, 30*time.Second)
			if solved.State != StateDone || !solved.Coalesced {
				t.Fatalf("solve: state %s coalesced %v (%s)", solved.State, solved.Coalesced, solved.Error)
			}
			want := solved.Result
			if want.Fingerprint != wantFP {
				t.Fatalf("result fingerprint %s, spec.Fingerprint() %s", want.Fingerprint, wantFP)
			}

			waitCached(t, s, 1)
			code, cached := postSolve(t, ts.URL, req)
			if code != http.StatusOK || !cached.Cached || !reflect.DeepEqual(cached.Result, want) {
				t.Errorf("cached answer: status %d cached %v\n got %+v\nwant %+v", code, cached.Cached, cached.Result, want)
			}

			// A fresh server, so the batch item really solves.
			_, tsb := newTestServer(t, Config{Workers: 1, MaxNodes: 12})
			code, br := postBatch(t, tsb.URL, BatchRequest{Items: []SolveRequest{req, req}})
			if code != http.StatusOK || len(br.Items) != 2 {
				t.Fatalf("batch: status %d, %d items", code, len(br.Items))
			}
			item, dup := br.Items[0], br.Items[1]
			if item.Code != http.StatusOK || item.Deduped || item.Job == nil || item.Job.Cached {
				t.Fatalf("batch item: %+v", item)
			}
			if dup.Code != http.StatusOK || !dup.Deduped || dup.Job == nil || dup.Job.ID != item.Job.ID {
				t.Fatalf("batch duplicate: %+v", dup)
			}
			if !reflect.DeepEqual(item.Job.Result, want) || !reflect.DeepEqual(dup.Job.Result, want) {
				t.Errorf("batch answers differ:\n item %+v\n  dup %+v\n want %+v", item.Job.Result, dup.Job.Result, want)
			}
			// And the batch's cached answer on the first server.
			code, br = postBatch(t, ts.URL, BatchRequest{Items: []SolveRequest{req}})
			if code != http.StatusOK || !br.Items[0].Job.Cached || !reflect.DeepEqual(br.Items[0].Job.Result, want) {
				t.Errorf("cached batch answer: status %d %+v", code, br.Items[0])
			}
		})
	}
}
