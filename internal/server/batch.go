package server

import "net/http"

// POST /v1/solve/batch: up to Config.MaxBatch solve specs in one
// request, solved with the same semantics as that many sequential
// POST /v1/solve calls with wait=true — and therefore bit-identical
// results (each item goes through the identical normalize → submit →
// solve path; batching changes scheduling, never arithmetic).
//
// Deduplication is layered, and every layer reads the one solve key
// normalize resolved for the item: identical specs WITHIN the batch
// collapse onto one job here (items after the first are marked deduped
// and share its result), and each distinct spec still passes through
// the single-flight and LRU layers in submit, so a batch also coalesces
// with concurrent individual requests and hits the result cache. A
// batch of B identical items costs exactly one optimizer run, and an
// item — duplicate, cached or fresh — is compiled and hashed once.
//
// Errors are per item: a malformed or rejected spec fails its own slot
// (code + error) while the rest of the batch proceeds. The HTTP status
// is 200 whenever the batch itself was well-formed.

// BatchRequest is the POST /v1/solve/batch body. The per-item Wait
// flag is ignored: a batch always waits for its items.
type BatchRequest struct {
	Items []SolveRequest `json:"items"`
}

// BatchItemResult is one item's outcome, in input order. Code is the
// status the item would have received from /v1/solve (200, or a 4xx/5xx
// with Error set and Job nil). Deduped marks items collapsed onto an
// earlier identical item of the same batch.
type BatchItemResult struct {
	Code    int      `json:"code"`
	Error   string   `json:"error,omitempty"`
	Deduped bool     `json:"deduped,omitempty"`
	Job     *JobView `json:"job,omitempty"`
}

// BatchResponse is the POST /v1/solve/batch response payload.
type BatchResponse struct {
	Items []BatchItemResult `json:"items"`
}

// batchItem tracks one in-flight batch slot while its job runs.
type batchItem struct {
	job     *Job
	outcome submitOutcome
	owner   int // index of the item whose job this slot shares (dedup)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if herr := decodeBody(w, r, 8<<20, &req); herr != nil {
		writeError(w, herr)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, badRequest("batch has no items"))
		return
	}
	if len(req.Items) > s.cfg.MaxBatch {
		writeError(w, badRequest("batch of %d items exceeds the %d-item limit", len(req.Items), s.cfg.MaxBatch))
		return
	}
	s.mem.Count("server.batch.requests", 1)
	s.mem.Count("server.batch.items", int64(len(req.Items)))

	results := make([]BatchItemResult, len(req.Items))
	items := make([]batchItem, len(req.Items))
	// byKey maps a solve key to the first batch index that submitted it:
	// the intra-batch dedup layer. Submission errors are not owners —
	// a later identical item retries (it will fail identically for 4xx
	// causes, but a queue-full 429 may clear mid-batch).
	byKey := make(map[string]int, len(req.Items))
	for i := range req.Items {
		item := &req.Items[i]
		item.Wait = false // the batch waits collectively below
		rs, herr := s.normalize(item)
		if herr != nil {
			results[i] = BatchItemResult{Code: herr.code, Error: herr.msg}
			continue
		}
		if j, ok := byKey[rs.key]; ok {
			s.mem.Count("server.batch.deduped", 1)
			results[i] = BatchItemResult{Code: http.StatusOK, Deduped: true}
			items[i] = batchItem{owner: j}
			continue
		}
		job, outcome, herr := s.submit(item, rs)
		if herr != nil {
			results[i] = BatchItemResult{Code: herr.code, Error: herr.msg}
			continue
		}
		byKey[rs.key] = i
		results[i] = BatchItemResult{Code: http.StatusOK}
		items[i] = batchItem{job: job, outcome: outcome, owner: i}
	}

	// Wait for every submitted job. On client disconnect, cancel the
	// jobs this batch originated — coalesced jobs belong to other
	// requests and cached ones are already done — and collect their
	// terminal states: the response write fails anyway, but the store
	// must not keep running jobs nobody waits on.
	disconnected := false
	for i := range items {
		if items[i].job == nil || disconnected {
			continue
		}
		select {
		case <-items[i].job.Done():
		case <-r.Context().Done():
			disconnected = true
			s.mem.Count("server.jobs.client_disconnects", 1)
		}
	}
	if disconnected {
		for i := range items {
			if items[i].job != nil && items[i].outcome == outcomeQueued {
				items[i].job.Cancel()
				<-items[i].job.Done()
			}
		}
	}

	for i := range items {
		if results[i].Error != "" {
			continue
		}
		// Dedup followers report their owner's job; byKey only records
		// successful submissions, so the owner always has one.
		src := items[items[i].owner]
		view := src.job.View()
		if src.outcome == outcomeCoalesced {
			view.Coalesced = true
		}
		results[i].Job = &view
	}
	writeJSON(w, http.StatusOK, BatchResponse{Items: results})
}
