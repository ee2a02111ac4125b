package server

import (
	"context"

	"qaoaml/internal/telemetry"
)

// Fleet seams. The server stays a single-process subsystem; scaling it
// out is done through two narrow interfaces implemented by
// internal/cluster — a durable Journal (write-ahead log of accepted
// work and terminal outcomes) and a Dispatcher (fan heavy solves out to
// worker processes). Both are nil by default, which is exactly the
// pre-fleet single-process behavior.

// Journal durably records the job lifecycle so a crash loses no
// accepted work. Accepted is called synchronously inside submission —
// before the job becomes visible to workers and before the client gets
// its 202 — so an accepted record is on disk for every job the server
// ever acknowledged; an Accepted error rejects the submission.
// Completed is called once per job after it reaches a terminal state:
// res is the cacheable result for done jobs and nil for failed or
// cancelled ones (settled, nothing to replay).
//
// Implementations must be safe for concurrent use; Accepted is invoked
// under the server's submission lock, so its latency (an fsync) bounds
// the submission rate.
type Journal interface {
	Accepted(key, fingerprint string, req SolveRequest) error
	Completed(key string, res *SolveResult) error
}

// Dispatcher runs one job's solve somewhere else — the coordinator
// side of the coordinator/worker split. It receives the normalized
// request, the canonical instance fingerprint (the consistent-hashing
// key, so repeat requests land on the cache that owns them), the
// admission cost (depth·2^qubits; the fleet's Dispatcher ignores it, and
// the parameter stays because benchmark/serve.go's timedDispatcher
// implements this signature), and an emit callback for relaying the remote
// per-iteration trace events into the local job's SSE stream (may be
// nil). Cancelling ctx must abort the remote solve. The returned
// result must be bit-identical to a local solve of the same request —
// determinism is what makes the fleet cache exact.
type Dispatcher interface {
	Dispatch(ctx context.Context, req SolveRequest, fingerprint string, cost int64, emit func(telemetry.IterEvent)) (*SolveResult, error)
}

// SeedCache replays a recovered result into the LRU under its solve
// key — WAL recovery's cache warm-up. Keys come from journaled
// Accepted records, so they are canonical by construction.
func (s *Server) SeedCache(key string, res *SolveResult) {
	if key == "" || res == nil {
		return
	}
	s.cache.Add(key, res)
	s.mem.Count("server.cache.seeded", 1)
}

// Resubmit re-enqueues a recovered request with no attached client —
// WAL recovery's path for jobs that were accepted but never finished.
// The request takes the path of a fresh submission — normalize, then
// submit with the identity it resolved, so it is re-journaled under the
// key its accepted record carries (recovery dedups repeated accepted
// records by key) — and runs under a fresh default deadline. It returns
// the job, or the submission error (e.g. a model that is no longer
// registered).
func (s *Server) Resubmit(req SolveRequest) (*Job, error) {
	req.Wait = false
	rs, herr := s.normalize(&req)
	if herr != nil {
		return nil, herr
	}
	job, _, herr := s.submit(&req, rs)
	if herr != nil {
		return nil, herr
	}
	s.mem.Count("server.jobs.resubmitted", 1)
	return job, nil
}
