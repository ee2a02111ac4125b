package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"qaoaml/internal/problem"
)

// postBatch submits a batch and decodes the response; the raw status
// code comes back for top-level-error tests.
func postBatch(t *testing.T, url string, req BatchRequest) (int, BatchResponse) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/solve/batch", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatalf("decoding %q: %v", body, err)
		}
	}
	return resp.StatusCode, br
}

// mixedBatchItems returns one solvable item per problem family.
func mixedBatchItems() []SolveRequest {
	nodes, edges := testInstance(3)
	return []SolveRequest{
		{Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive, Seed: 1},
		{Problem: "partition", Wire: problem.Wire{Numbers: []float64{4, 8, 15, 16, 23, 42}}, Depth: 1, Strategy: StrategyNaive, Seed: 2},
		{Problem: "maxksat", Wire: problem.Wire{Vars: 5, Clauses: [][]int{{1, -2}, {2, 3}, {-3, 4}, {4, 5}, {-1, -5}}},
			Depth: 1, Strategy: StrategyNaive, Seed: 3},
	}
}

// TestBatchMixedFamiliesBitIdentical: a mixed-family batch succeeds per
// item and every result is bit-identical to the same spec solved
// through sequential POST /v1/solve on a fresh server — batching
// changes scheduling, never arithmetic.
func TestBatchMixedFamiliesBitIdentical(t *testing.T) {
	_, tsBatch := newTestServer(t, Config{Workers: 2})
	_, tsSeq := newTestServer(t, Config{Workers: 2})

	items := mixedBatchItems()
	code, br := postBatch(t, tsBatch.URL, BatchRequest{Items: items})
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(br.Items) != len(items) {
		t.Fatalf("%d results for %d items", len(br.Items), len(items))
	}
	for i, item := range br.Items {
		if item.Code != http.StatusOK || item.Job == nil || item.Job.State != StateDone {
			t.Fatalf("item %d: code %d, job %+v", i, item.Code, item.Job)
		}
		seq := items[i]
		seq.Wait = true
		seqCode, seqView := postSolve(t, tsSeq.URL, seq)
		if seqCode != http.StatusOK || seqView.State != StateDone {
			t.Fatalf("sequential item %d: status %d state %s", i, seqCode, seqView.State)
		}
		if !reflect.DeepEqual(item.Job.Result, seqView.Result) {
			t.Fatalf("item %d: batch result %+v != sequential %+v", i, item.Job.Result, seqView.Result)
		}
	}
}

// TestBatchIntraBatchDedup: a batch of B identical specs costs exactly
// one optimizer run — pinned through the optimize.fev_total counter
// against a reference single solve — and the B−1 followers share the
// owner's job.
func TestBatchIntraBatchDedup(t *testing.T) {
	nodes, edges := testInstance(11)
	spec := SolveRequest{Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive, Seed: 4}

	// Reference: the optimizer budget of one solve of this spec.
	sRef, tsRef := newTestServer(t, Config{Workers: 1})
	ref := spec
	ref.Wait = true
	if code, view := postSolve(t, tsRef.URL, ref); code != http.StatusOK || view.State != StateDone {
		t.Fatalf("reference solve: %d %+v", code, view)
	}
	fevOne := sRef.mem.CounterValue("optimize.fev_total")
	if fevOne == 0 {
		t.Fatal("reference solve recorded no objective evaluations")
	}

	const B = 4
	s, ts := newTestServer(t, Config{Workers: 2})
	items := make([]SolveRequest, B)
	for i := range items {
		items[i] = spec
	}
	code, br := postBatch(t, ts.URL, BatchRequest{Items: items})
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	ownerID := br.Items[0].Job.ID
	for i, item := range br.Items {
		if item.Code != http.StatusOK || item.Job == nil || item.Job.State != StateDone {
			t.Fatalf("item %d: %+v", i, item)
		}
		if (i > 0) != item.Deduped {
			t.Fatalf("item %d: deduped = %v", i, item.Deduped)
		}
		if item.Job.ID != ownerID {
			t.Fatalf("item %d resolved job %s, want owner %s", i, item.Job.ID, ownerID)
		}
	}
	if fev := s.mem.CounterValue("optimize.fev_total"); fev != fevOne {
		t.Fatalf("batch of %d identical specs spent %d objective calls, want one run's %d", B, fev, fevOne)
	}
	if got := s.mem.CounterValue("server.batch.deduped"); got != B-1 {
		t.Fatalf("deduped counter %d, want %d", got, B-1)
	}
}

// TestBatchPartialFailure: a malformed item fails its own slot with a
// per-item code and error while the rest of the batch completes.
func TestBatchPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	nodes, edges := testInstance(5)
	items := []SolveRequest{
		{Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive, Seed: 1},
		{Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 99, Strategy: StrategyNaive, Seed: 2}, // over MaxDepth
		{Problem: "partition", Wire: problem.Wire{Numbers: []float64{3, 1, 4, 1, 5}}, Depth: 1, Strategy: StrategyNaive, Seed: 3},
	}
	code, br := postBatch(t, ts.URL, BatchRequest{Items: items})
	if code != http.StatusOK {
		t.Fatalf("batch status %d (well-formed batches respond 200 even with failed items)", code)
	}
	if br.Items[1].Code != http.StatusBadRequest || br.Items[1].Error == "" || br.Items[1].Job != nil {
		t.Fatalf("bad item: %+v", br.Items[1])
	}
	for _, i := range []int{0, 2} {
		if br.Items[i].Code != http.StatusOK || br.Items[i].Job == nil || br.Items[i].Job.State != StateDone {
			t.Fatalf("good item %d did not complete: %+v", i, br.Items[i])
		}
	}
}

// TestBatchLimits: empty batches and batches over maxBatch are rejected
// whole with 400.
func TestBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	nodes, edges := testInstance(6)
	item := SolveRequest{Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 1, Strategy: StrategyNaive}
	items := make([]SolveRequest, maxBatch+1)
	for i := range items {
		items[i] = item
	}
	if code, _ := postBatch(t, ts.URL, BatchRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
	if code, _ := postBatch(t, ts.URL, BatchRequest{Items: items}); code != http.StatusBadRequest {
		t.Fatalf("oversize batch: status %d, want 400", code)
	}
	if code, _ := postBatch(t, ts.URL, BatchRequest{Items: items[:maxBatch]}); code != http.StatusOK {
		t.Fatalf("at-limit batch: status %d, want 200", code)
	}
}

// TestBatchClientDisconnectCancels: a batch submitter that drops the
// connection mid-run cancels the jobs the batch originated — both the
// one running and the one still queued.
func TestBatchClientDisconnectCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	started := make(chan *Job, 2)
	release := make(chan struct{})
	defer close(release)
	blockingSolve(s, started, release)

	n1, e1 := testInstance(21)
	n2, e2 := testInstance(22)
	blob, err := json.Marshal(BatchRequest{Items: []SolveRequest{
		{Wire: problem.Wire{Nodes: n1, Edges: e1}, Depth: 1, Strategy: StrategyNaive, Seed: 1},
		{Wire: problem.Wire{Nodes: n2, Edges: e2}, Depth: 1, Strategy: StrategyNaive, Seed: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	reqCtx, abort := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(reqCtx, http.MethodPost,
		ts.URL+"/v1/solve/batch", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(httpReq)
		errc <- err
	}()

	job1 := <-started // item 1 running on the single worker, item 2 queued
	abort()
	if err := <-errc; err == nil {
		t.Fatal("batch request unexpectedly completed")
	}
	waitState(t, job1, StateCancelled, 10*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for s.mem.CounterValue("server.jobs.cancelled") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled counter stuck at %d, want 2", s.mem.CounterValue("server.jobs.cancelled"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.mem.CounterValue("server.jobs.client_disconnects"); got != 1 {
		t.Fatalf("client_disconnects counter %d, want 1", got)
	}
}
