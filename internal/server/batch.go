package server

import (
	"crypto/sha256"
	"net/http"
)

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
//
// An item whose bytes the memo knows is answered from the cache without
// being decoded; the others go through decode and normalize as before
// (decodeBatch).

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

// batchBody is a batch request as decodeBatch left it. When the body is
// exactly {"items":[…]}, spans and sums hold each item's byte range and
// its SHA-256, and keys the solve key the memo knows for the item's
// bytes ("" for none); such an item stays undecoded until its answer
// turns out not to be cached.
type batchBody struct {
	BatchRequest
	spans [][2]int
	sums  [][sha256.Size]byte
	keys  []string
}

// decodeBatch decodes a batch body. With the memo, a body that is
// exactly {"items":[…]} is decoded item by item (decodeItems); any other
// body, or one with an item that does not decode, is decoded whole, so
// a refusal names its offset in the body.
func (s *Server) decodeBatch(body []byte) (batchBody, error) {
	if s.memo != nil {
		if spans, ok := itemSpans(body); ok {
			if b, ok := s.decodeItems(body, spans); ok {
				return b, nil
			}
		}
	}
	var b batchBody
	return b, decodeRequest(body, &b.BatchRequest)
}

// decodeItems decodes every item span of body except those whose bytes
// the memo knows; ok is false if an item does not decode.
func (s *Server) decodeItems(body []byte, spans [][2]int) (b batchBody, ok bool) {
	n := len(spans)
	b = batchBody{
		BatchRequest: BatchRequest{Items: make([]SolveRequest, n)},
		spans:        spans, sums: make([][sha256.Size]byte, n), keys: make([]string, n),
	}
	gen := s.registry.Generation()
	for i, sp := range spans {
		item := body[sp[0]:sp[1]]
		b.sums[i] = sha256.Sum256(item)
		if key, ok := s.memo.Get(memoKey{b.sums[i], gen}); ok {
			b.keys[i] = key
		} else if decodeRequest(item, &b.Items[i]) != nil {
			return b, false
		}
	}
	return b, true
}

// known returns the solve key the memo knows for item i's bytes, or "".
func (b *batchBody) known(i int) string {
	if b.keys == nil {
		return ""
	}
	return b.keys[i]
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	buf, herr := readRequest(w, r, 8<<20)
	if herr != nil {
		writeError(w, herr)
		return
	}
	defer putBody(buf) // an item the memo knows is decoded from it on a cache miss
	body := *buf
	req, err := s.decodeBatch(body)
	if err != nil {
		writeError(w, badRequest("decoding request: %v", err))
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
	dedup := func(i, j int) {
		s.mem.Count("server.batch.deduped", 1)
		results[i] = BatchItemResult{Code: http.StatusOK, Deduped: true}
		items[i] = batchItem{owner: j}
	}
	for i := range req.Items {
		item := &req.Items[i]
		if key := req.known(i); key != "" {
			if j, ok := byKey[key]; ok {
				dedup(i, j)
				continue
			}
			if job := s.memoHit(key); job != nil {
				byKey[key] = i
				results[i] = BatchItemResult{Code: http.StatusOK}
				items[i] = batchItem{job: job, outcome: outcomeCached, owner: i}
				continue
			}
			// No answer cached: decode the item after all. Its bytes
			// decoded when the memo learnt them, and decode the same now.
			_ = decodeRequest(body[req.spans[i][0]:req.spans[i][1]], item)
		}
		item.Wait = false // the batch waits collectively below
		rs, herr := s.normalize(item)
		if herr != nil {
			results[i] = BatchItemResult{Code: herr.code, Error: herr.msg}
			continue
		}
		if j, ok := byKey[rs.key]; ok {
			dedup(i, j)
			if req.sums != nil {
				s.remember(req.sums[i], rs)
			}
			continue
		}
		job, outcome, herr := s.submit(item, rs)
		if herr != nil {
			results[i] = BatchItemResult{Code: herr.code, Error: herr.msg}
			continue
		}
		if req.sums != nil {
			s.remember(req.sums[i], rs)
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
