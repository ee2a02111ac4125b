package server

import "net/http"

// POST /v1/solve/batch: up to maxBatch solve specs in one
// request, solved with the same semantics as that many sequential
// POST /v1/solve calls with wait=true — and therefore bit-identical
// results (each item goes through the identical normalize → submit →
// solve path; batching changes scheduling, never arithmetic).
//
// Every item enters through enter, as a lone request does.
// Deduplication is layered, and every layer reads the one solve key
// normalize resolved for the item: identical specs WITHIN the batch
// collapse onto one job (items after the first are marked deduped and
// share its result), and each distinct spec still passes through
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
// being decoded (decodeBatch).

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

// maxBatch caps the item count of one POST /v1/solve/batch request.
const maxBatch = 64

// decodeBatch decodes a batch body into its items. With the memo, a
// body that is exactly {"items":[…]} is split at its item spans: each
// item keeps its bytes, and is decoded only if the memo knows no key
// for them. Any other body, or one with an item that does not decode,
// is decoded whole, so a refusal names its offset in the body.
func (s *Server) decodeBatch(body []byte) ([]item, error) {
	if s.memo != nil {
		if spans, ok := itemSpans(body); ok {
			items := make([]item, len(spans))
			for i, sp := range spans {
				items[i] = s.identify(body[sp[0]:sp[1]])
				if items[i].key == "" && items[i].decode() != nil {
					items = nil
					break
				}
			}
			if items != nil {
				return items, nil
			}
		}
	}
	var b BatchRequest
	if err := decodeRequest(body, &b); err != nil {
		return nil, err
	}
	items := make([]item, len(b.Items))
	for i := range items {
		items[i].req = &b.Items[i]
	}
	return items, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	buf, herr := readRequest(w, r, 8<<20)
	if herr != nil {
		writeError(w, herr)
		return
	}
	defer putBody(buf) // an item the memo knows is decoded from it on a cache miss
	items, err := s.decodeBatch(*buf)
	if err != nil {
		writeError(w, badRequest("decoding request: %v", err))
		return
	}
	if len(items) == 0 {
		writeError(w, badRequest("batch has no items"))
		return
	}
	if len(items) > maxBatch {
		writeError(w, badRequest("batch of %d items exceeds the %d-item limit", len(items), maxBatch))
		return
	}
	s.mem.Count("server.batch.requests", 1)
	s.mem.Count("server.batch.items", int64(len(items)))

	entries := make([]entry, len(items))
	owners := make(map[string]int, len(items))
	for i := range items {
		entries[i] = s.enter(&items[i], i, owners)
	}
	s.await(r.Context(), entries)

	results := make([]BatchItemResult, len(entries))
	for i, e := range entries {
		if e.err != nil {
			results[i] = BatchItemResult{Code: e.err.code, Error: e.err.msg}
			continue
		}
		// An item that shares a job reports its owner's, which has one.
		view := entries[e.owner].job.View()
		results[i] = BatchItemResult{Code: http.StatusOK, Deduped: e.owner != i, Job: &view}
	}
	writeJSON(w, http.StatusOK, BatchResponse{Items: results})
}
