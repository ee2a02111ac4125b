// Package server is the QAOA-as-a-service layer: an HTTP JSON API that
// accepts problem instances of six families and runs them through the
// core naive or two-level (ML-initialized, Fig. 4) flows on a bounded
// worker pool. A request is decoded, resolved once (normalize: validate,
// compile, fingerprint, key), submitted (cache, single-flight, admission,
// journal, queue), solved by a worker and encoded; no stage after
// normalize derives the request's identity again.
//
// The subsystem is built from four pieces:
//
//   - a bounded job queue drained by a fixed worker pool, with explicit
//     backpressure (429 + Retry-After) when the queue is full;
//   - an LRU result cache keyed by the canonical instance fingerprint
//     plus solve options, with single-flight coalescing of identical
//     in-flight requests;
//   - a model Registry of pre-trained parameter predictors, hot-
//     reloadable on SIGHUP;
//   - per-job deadlines and client-disconnect propagation as context
//     cancellation into the optimizers, plus graceful drain on
//     shutdown.
//
// Endpoints: POST /v1/solve, GET /v1/jobs/{id}, DELETE /v1/jobs/{id},
// GET /healthz, GET /metrics (a telemetry.Memory snapshot with
// per-endpoint latency histograms and queue-depth gauges).
package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/quantum"
	"qaoaml/internal/telemetry"
)

// APIVersion is the wire-schema version served by /healthz. Version 2
// added the problem-family fields to SolveRequest (v1 bodies — plain
// MaxCut with nodes/edges/weights — parse unchanged).
const APIVersion = 2

// Solve strategies.
const (
	StrategyNaive    = "naive"     // random init at the target depth (Fig. 1(a))
	StrategyTwoLevel = "two-level" // depth-1 optimum → ML prediction → polish (Fig. 4)
)

// Config sizes the daemon. The zero value is usable: every field has a
// production default.
type Config struct {
	// Workers sizes the solve worker pool; 0 means GOMAXPROCS, matching
	// experiments.Scale.Workers semantics.
	Workers int
	// QueueDepth bounds the job queue (default 64). A full queue rejects
	// submissions with 429 + Retry-After.
	QueueDepth int
	// CacheSize bounds the LRU result cache entries (default 256;
	// negative disables caching — a coordinator that defers entirely to
	// the worker-owned cache shards).
	CacheSize int
	// MaxJobs bounds retained finished job records (default 1024).
	MaxJobs int
	// DefaultTimeout applies to jobs that request none (default 60s).
	DefaultTimeout time.Duration
	// MaxTimeout caps requested per-job deadlines (default 10m).
	MaxTimeout time.Duration
	// MaxNodes caps instance size (default 20; hard limit
	// quantum.MaxQubits, the simulator's register ceiling).
	MaxNodes int
	// MaxDepth caps the requested circuit depth (default 10).
	MaxDepth int
	// MaxBatch caps the item count of one POST /v1/solve/batch request
	// (default 64).
	MaxBatch int
	// MaxInflightCost budgets the summed cost (depth·2^qubits, see
	// jobCost) of queued-plus-running jobs; submissions beyond it get
	// 429 + Retry-After. Default: Workers × jobCost(MaxNodes, MaxDepth)
	// — enough that a pool of worst-case jobs saturates the workers
	// before admission pushes back, so the budget only bites when the
	// backlog holds multiple maximal solves.
	MaxInflightCost int64
	// Registry resolves two-level model names (nil: empty registry,
	// naive-only serving until Register is called).
	Registry *Registry
	// Recorder receives all server and optimizer telemetry (nil: a
	// fresh telemetry.Memory, exposed via Metrics).
	Recorder *telemetry.Memory
	// Journal, when non-nil, durably records accepted jobs and terminal
	// outcomes (see internal/cluster's WAL); a crash then loses no
	// accepted work. Nil: no journaling.
	Journal Journal
	// Dispatcher, when non-nil, runs solves remotely instead of on the
	// local worker pool — the coordinator role. Admission, dedup,
	// caching and journaling stay local; only the optimization is
	// dispatched. Nil: solve in process (single-process and worker
	// roles).
	Dispatcher Dispatcher
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0 // negative disables caching (fleet tests, cache-owner routing)
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 20
	}
	if c.MaxNodes > quantum.MaxQubits {
		c.MaxNodes = quantum.MaxQubits
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 10
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxInflightCost <= 0 {
		c.MaxInflightCost = int64(c.Workers) * jobCost(c.MaxNodes, c.MaxDepth)
	}
	return c
}

// WireTerm is one quadratic coupling J·s_i·s_j on the wire.
type WireTerm = problem.WireTerm

// SolveRequest is the POST /v1/solve body: the problem family, its
// payload (problem.Wire: each family reads its own fields and refuses
// the others' with a 400; unknown JSON keys are rejected outright) and
// the solve options. Three-literal maxksat clauses add one auxiliary
// qubit each, which counts against the node cap.
type SolveRequest struct {
	// Problem is the family: maxcut (default), qubo, maxksat,
	// partition, portfolio or coloring.
	Problem string `json:"problem,omitempty"`
	problem.Wire

	Depth int `json:"depth"`
	// Strategy is "two-level" (default) or "naive".
	Strategy string `json:"strategy,omitempty"`
	// Optimizer is lbfgsb (default), neldermead, slsqp or cobyla.
	Optimizer string `json:"optimizer,omitempty"`
	// Model names the registry predictor for two-level (default "default").
	Model string `json:"model,omitempty"`
	// Seed fixes the run RNG (default 1); identical requests are
	// therefore deterministic, which is what makes the result cache
	// exact rather than approximate.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMs bounds the solve from enqueue time (default
	// Config.DefaultTimeout, capped at Config.MaxTimeout).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Wait blocks the HTTP request until the job finishes; a client
	// disconnect then cancels the job (unless it was coalesced onto an
	// earlier identical request).
	Wait bool `json:"wait,omitempty"`
}

// Server is the serving subsystem: HTTP handlers in front of the job
// queue, worker pool, result cache and model registry.
type Server struct {
	cfg      Config
	mem      *telemetry.Memory
	registry *Registry
	jobs     *jobStore
	cache    *lruCache
	queue    chan *Job

	mu       sync.Mutex
	inflight map[string]*Job // cache key → queued/running job
	adm      admission       // cost budget, guarded by mu
	draining bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	mux        *http.ServeMux

	// Every cache hit is born finished: they all share one cancelled
	// context and one closed done channel instead of making a pair each.
	finishedCtx  context.Context
	finishedDone chan struct{}

	// solveFn runs one job's optimization; tests swap it to make
	// cancellation timing deterministic.
	solveFn func(ctx context.Context, job *Job) (*SolveResult, error)
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	mem := cfg.Recorder
	if mem == nil {
		mem = telemetry.NewMemory()
	}
	reg := cfg.Registry
	if reg == nil {
		reg, _ = NewRegistry("")
	}
	for _, route := range []string{"solve", "batch", "jobs", "events", "healthz", "metrics"} {
		mem.DefineBuckets("server.http."+route+"_ms", telemetry.ExpBuckets(0.25, 2, 18))
	}
	s := &Server{
		cfg:      cfg,
		mem:      mem,
		registry: reg,
		jobs:     newJobStore(cfg.MaxJobs),
		cache:    newLRUCache(cfg.CacheSize),
		queue:    make(chan *Job, cfg.QueueDepth),
		inflight: make(map[string]*Job),
	}
	s.adm = admission{budget: cfg.MaxInflightCost}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	finishedCtx, cancel := context.WithCancel(s.baseCtx)
	cancel()
	s.finishedCtx, s.finishedDone = finishedCtx, make(chan struct{})
	close(s.finishedDone)
	s.solveFn = s.runSolve
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.timed("solve", s.handleSolve))
	s.mux.HandleFunc("POST /v1/solve/batch", s.timed("batch", s.handleBatch))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.timed("jobs", s.handleJobGet))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.timed("events", s.handleJobEvents))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.timed("jobs", s.handleJobCancel))
	s.mux.HandleFunc("GET /healthz", s.timed("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.timed("metrics", s.handleMetrics))
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the telemetry sink backing /metrics.
func (s *Server) Metrics() *telemetry.Memory { return s.mem }

// Drain stops accepting work, lets queued and running jobs finish, and
// returns when the worker pool has exited. If ctx expires first, the
// remaining jobs are cancelled (they finish as cancelled, not dropped)
// and Drain still waits for the workers before returning ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // hard-cancel stragglers; workers still drain the queue
		<-done
		return ctx.Err()
	}
}

// Close drains immediately, cancelling all outstanding jobs.
func (s *Server) Close() {
	s.baseCancel()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(expired)
}

// ---- submission ----

// httpError carries a status code with the message. retryAfter (whole
// seconds, 429s only) is the admission layer's estimated wait; zero
// falls back to 1.
type httpError struct {
	code       int
	msg        string
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// submitOutcome distinguishes how a request was satisfied.
type submitOutcome int

const (
	outcomeQueued    submitOutcome = iota // fresh job enqueued
	outcomeCoalesced                      // attached to an identical in-flight job
	outcomeCached                         // served from the result cache
)

// resolved is a request's identity, computed once by normalize and read
// by every later stage — batch dedup, the cache and single-flight
// lookups, admission, the journal and the worker. Nothing downstream
// compiles, fingerprints or keys the request again.
type resolved struct {
	spec problem.Spec
	// inst is the compiled Hamiltonian the worker solves; nil for MaxCut,
	// which Wire.Spec has fully validated and whose optimum qaoa.New
	// takes from the graph.
	inst   *problem.Instance
	qubits int    // register width, auxiliaries included: the admission price's exponent
	fp     string // canonical instance fingerprint
	key    string // canonical solve key (solveKey)
}

// normalize is the one place a request's identity is computed. It
// applies the defaults in place and validates in a fixed order —
// optimizer, depth, family and payload (problem.Wire.Spec, which also
// caps an arithmetic register width), compile, compiled width,
// strategy and model — so a request with several faults always reports
// the same one. The instance is compiled here, once: a malformed
// payload fails the request, not the job, and the register cap counts
// auxiliary qubits (maxksat). The fingerprint and the solve key are
// taken from that one compile.
func (s *Server) normalize(req *SolveRequest) (resolved, *httpError) {
	var zero resolved
	if req.Problem == "" {
		req.Problem = problem.FamilyMaxCut
	}
	if req.Strategy == "" {
		req.Strategy = StrategyTwoLevel
	}
	if req.Optimizer == "" {
		req.Optimizer = "lbfgsb"
	}
	if req.Model == "" {
		req.Model = "default"
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if optimizerFor(req.Optimizer) == nil {
		return zero, badRequest("unknown optimizer %q (want lbfgsb, neldermead, slsqp or cobyla)", req.Optimizer)
	}
	if req.Depth < 1 || req.Depth > s.cfg.MaxDepth {
		return zero, badRequest("depth %d out of [1, %d]", req.Depth, s.cfg.MaxDepth)
	}
	spec, err := req.Wire.Spec(req.Problem, s.cfg.MaxNodes)
	if err != nil {
		return zero, badRequest("%v", err)
	}
	rs := resolved{spec: spec}
	if req.Problem == problem.FamilyMaxCut {
		rs.qubits = spec.Graph.N // capped by Wire.Spec
	} else {
		inst, err := spec.Compile()
		if err == nil {
			err = problem.CheckWidth(req.Problem, inst.N, s.cfg.MaxNodes)
		}
		if err != nil {
			return zero, badRequest("%v", err)
		}
		rs.inst, rs.qubits = inst, inst.N
	}
	switch req.Strategy {
	case StrategyNaive:
	case StrategyTwoLevel:
		if req.Depth < 2 {
			return zero, badRequest("two-level needs depth >= 2 (use strategy \"naive\" for depth 1)")
		}
		pred, ok := s.registry.Get(req.Model)
		if !ok {
			return zero, badRequest("unknown model %q (registered: %v)", req.Model, s.registry.Names())
		}
		if !slices.Contains(pred.TargetDepths(), req.Depth) {
			return zero, badRequest("model %q not trained for target depth %d (trained: %v)",
				req.Model, req.Depth, pred.TargetDepths())
		}
	default:
		return zero, badRequest("unknown strategy %q (want %q or %q)", req.Strategy, StrategyNaive, StrategyTwoLevel)
	}
	// Identity last: a rejected request pays for no hash.
	if rs.inst != nil {
		rs.fp = rs.inst.Fingerprint()
	} else {
		rs.fp = spec.Graph.Fingerprint()
	}
	rs.key = solveKey(rs.fp, req)
	return rs, nil
}

// submit turns a normalized request into a job, reading the identity
// normalize resolved: a cache hit returns a finished job, an identical
// in-flight request is coalesced, otherwise a fresh job is priced,
// journaled and enqueued. A full queue or an exhausted cost budget
// returns 429; a draining server returns 503. The request is copied
// only into a job that will actually run.
func (s *Server) submit(req *SolveRequest, rs resolved) (*Job, submitOutcome, *httpError) {
	key := rs.key

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, 0, &httpError{code: http.StatusServiceUnavailable, msg: "server is draining"}
	}
	if res, ok := s.cache.Get(key); ok {
		s.mem.Count("server.cache.hits", 1)
		job := s.newFinishedJob(key, res)
		s.jobs.add(job)
		return job, outcomeCached, nil
	}
	s.mem.Count("server.cache.misses", 1)
	if j := s.inflight[key]; j != nil {
		j.mu.Lock()
		j.coalesced = true
		j.mu.Unlock()
		s.mem.Count("server.jobs.coalesced", 1)
		return j, outcomeCoalesced, nil
	}

	// Cost-priced admission: reserve the job's cost against the global
	// in-flight budget before it may take a queue slot. Cache hits and
	// coalesced requests above never reach here — they add no work.
	cost := jobCost(rs.qubits, req.Depth)
	if !s.adm.admit(cost) {
		s.mem.Count("server.admission.rejected", 1)
		return nil, 0, &httpError{
			code:       http.StatusTooManyRequests,
			msg:        fmt.Sprintf("in-flight cost budget exhausted (job cost %d, in flight %d of %d), retry later", cost, s.adm.inflight, s.adm.budget),
			retryAfter: s.adm.retryAfter(cost),
		}
	}

	// Claim a queue slot before journaling: only submit pushes (under
	// mu), so a capacity check here guarantees the send below cannot
	// block, and a full queue is rejected before anything hits the WAL.
	if len(s.queue) >= cap(s.queue) {
		s.adm.unadmit(cost)
		s.mem.Count("server.http.backpressure", 1)
		return nil, 0, &httpError{code: http.StatusTooManyRequests, msg: "job queue full, retry later"}
	}

	// Cap in milliseconds before converting: the Duration product wraps
	// for timeout_ms above ≈ 9.2e12.
	timeout := s.cfg.DefaultTimeout
	switch {
	case req.TimeoutMs > s.cfg.MaxTimeout.Milliseconds():
		timeout = s.cfg.MaxTimeout
	case req.TimeoutMs > 0:
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}

	// Journal the acceptance before the job becomes visible: once the
	// client sees its 202 the work survives kill -9. A journal failure
	// refuses the job — an unjournalable acceptance would be a silent
	// hole in the durability contract.
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.Accepted(key, rs.fp, *req); err != nil {
			s.adm.unadmit(cost)
			s.mem.Count("server.journal.errors", 1)
			return nil, 0, &httpError{code: http.StatusServiceUnavailable, msg: fmt.Sprintf("journaling job: %v", err)}
		}
		s.mem.Count("server.journal.accepted", 1)
	}

	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	job := &Job{
		ID: s.jobs.nextID(), Key: key, req: *req, spec: rs.spec, inst: rs.inst, fp: rs.fp, cost: cost,
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
		state: StateQueued, enqueued: time.Now(), bus: newEventBus(),
	}
	s.queue <- job // cannot block: capacity checked above under mu
	s.mem.Count("server.cost.inflight", cost)
	s.jobs.add(job)
	s.inflight[key] = job
	s.mem.Count("server.jobs.submitted", 1)
	s.mem.Count("server.queue.depth", 1)
	// Watch for cancellation while queued: a deadline or explicit cancel
	// must not wait for a worker slot to take effect.
	go func() {
		<-job.ctx.Done()
		if job.finish(true, StateCancelled, nil, cancelMsg(job.ctx)) {
			s.afterFinish(job, StateCancelled)
		}
	}()
	return job, outcomeQueued, nil
}

// newFinishedJob materializes a cache hit as an already-done job record.
// Born finished, it has nothing of its own to cancel or to wait for.
func (s *Server) newFinishedJob(key string, res *SolveResult) *Job {
	now := time.Now()
	return &Job{
		ID: s.jobs.nextID(), Key: key,
		ctx: s.finishedCtx, cancel: func() {}, done: s.finishedDone,
		state: StateDone, cached: true, result: res,
		enqueued: now, started: now, finished: now,
	}
}

// completeJob finishes a job from the worker path and runs the shared
// bookkeeping exactly once.
func (s *Server) completeJob(j *Job, state JobState, res *SolveResult, errMsg string) {
	if j.finish(false, state, res, errMsg) {
		s.afterFinish(j, state)
	}
}

// afterFinish feeds the cache, clears the single-flight slot, retires
// the job's cost reservation, counts the terminal state, wakes the
// job's waiters and journals the outcome. Called exactly once per job.
func (s *Server) afterFinish(j *Job, state JobState) {
	var seconds float64
	if j.cost > 0 {
		// Wall time feeds the admission layer's retire-rate estimate;
		// jobs cancelled straight out of the queue never ran and are
		// excluded (zero seconds).
		j.mu.Lock()
		if !j.started.IsZero() && !j.finished.IsZero() {
			seconds = j.finished.Sub(j.started).Seconds()
		}
		j.mu.Unlock()
	}
	var res *SolveResult
	if state == StateDone {
		j.mu.Lock()
		res = j.result
		j.mu.Unlock()
	}
	// The answer enters the cache in the same critical section that
	// drops the in-flight entry (lock order s.mu → cache, as in submit):
	// an identical request always finds one or the other, never neither.
	s.mu.Lock()
	if state == StateDone {
		s.cache.Add(j.Key, res)
	}
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	if j.cost > 0 {
		s.adm.release(j.cost, seconds)
	}
	s.mu.Unlock()
	if j.cost > 0 {
		s.mem.Count("server.cost.inflight", -j.cost)
	}
	s.mem.Count("server.jobs."+string(state), 1)
	// Waiters wake only now, so a repeat sent on the reply finds the
	// answer cached; the journal's fsync below is not theirs to wait for.
	j.wake()
	// Journal the terminal outcome: done jobs carry their result (the
	// WAL replays it into the cache on recovery), failed and cancelled
	// jobs are settled with nil (recovery must not re-run them). A
	// failure here is counted, not fatal — the job already finished,
	// and the worst case is a wasted re-solve after a crash.
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.Completed(j.Key, res); err != nil {
			s.mem.Count("server.journal.errors", 1)
		} else {
			s.mem.Count("server.journal.completed", 1)
		}
	}
}

// ---- worker pool ----

// worker drains the queue. Each worker owns one qaoa.Arena for the
// life of the pool: consecutive jobs at the same register width reuse
// the same 2^n state vectors instead of reallocating them, which is
// what keeps steady-state solves free of state-vector-sized
// allocations (pinned by TestSteadyStateAllocations). The arena is
// worker-local, so no cross-worker synchronization touches the hot
// buffers; its hit/get counters surface as server.arena.* on /metrics.
func (s *Server) worker() {
	defer s.wg.Done()
	arena := qaoa.NewArena(0)
	defer arena.Close()
	var lastGets, lastHits int64
	for job := range s.queue {
		s.mem.Count("server.queue.depth", -1)
		job.arena = arena
		s.runJob(job)
		st := arena.Stats()
		if d := st.Gets - lastGets; d > 0 {
			s.mem.Count("server.arena.gets", d)
		}
		if d := st.Hits - lastHits; d > 0 {
			s.mem.Count("server.arena.hits", d)
		}
		lastGets, lastHits = st.Gets, st.Hits
	}
}

func (s *Server) runJob(job *Job) {
	if !job.setRunning() {
		return // cancelled while queued
	}
	s.mem.Count("server.jobs.running", 1)
	end := s.mem.Span("server.job")
	res, err := s.solveFn(job.ctx, job)
	end()
	s.mem.Count("server.jobs.running", -1)
	s.mem.Observe("server.job_ms", float64(time.Since(job.started).Nanoseconds())/1e6)
	switch {
	case err == nil:
		s.completeJob(job, StateDone, res, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.completeJob(job, StateCancelled, nil, cancelMsg(job.ctx))
	default:
		s.completeJob(job, StateFailed, nil, err.Error())
	}
}

func cancelMsg(ctx context.Context) string {
	if err := context.Cause(ctx); err != nil {
		return err.Error()
	}
	return "cancelled"
}

// runSolve executes one job through the core flows. The recorder is the
// server sink, so optimizer counters (optimize.fev_total etc.) surface
// in /metrics — including the fact that a cache hit adds none — teed so
// per-iteration traces also reach the job's SSE subscribers. With a
// Dispatcher configured (coordinator role) the solve runs on a remote
// worker instead; the dispatcher relays the worker's trace events into
// the same bus, so streaming clients cannot tell the difference.
func (s *Server) runSolve(ctx context.Context, job *Job) (*SolveResult, error) {
	if s.cfg.Dispatcher != nil {
		return s.cfg.Dispatcher.Dispatch(ctx, job.req, job.fp, job.cost, job.publish)
	}
	rec := telemetry.Tee(s.mem, job.publish)
	// The instance normalize compiled is the one solved; MaxCut alone goes
	// back to its spec, because its optimum is summed over the graph.
	var pb *qaoa.Problem
	var err error
	if job.inst != nil {
		pb, err = qaoa.NewIsing(job.inst)
	} else {
		pb, err = qaoa.New(job.spec)
	}
	if err != nil {
		return nil, err
	}
	o := core.Options{
		Depth: job.req.Depth, Optimizer: optimizerFor(job.req.Optimizer), Rng: rand.New(rand.NewSource(job.req.Seed)),
		Arena: job.arena, Recorder: rec,
	}
	switch job.req.Strategy {
	case StrategyNaive:
	case StrategyTwoLevel:
		pred, ok := s.registry.Get(job.req.Model)
		if !ok {
			return nil, fmt.Errorf("model %q disappeared from the registry", job.req.Model)
		}
		o.Strategy, o.Predictor = core.StrategyTwoLevel, pred
	default:
		return nil, fmt.Errorf("unknown strategy %q", job.req.Strategy)
	}
	r, err := core.Solve(ctx, pb, o)
	if err != nil {
		return nil, err
	}
	res := &SolveResult{
		Problem: job.req.Problem, Fingerprint: job.fp,
		Strategy: job.req.Strategy, AR: r.AR,
		Gamma: r.Params.Gamma, Beta: r.Params.Beta,
		NFev: r.NFev,
	}
	if o.Strategy == core.StrategyTwoLevel {
		res.Level1AR = r.Stages[0].AR
	}
	// Read out the most probable assignment at the final parameters —
	// the solution a client acts on — masked to the decision variables
	// (quadratization auxiliaries are an encoding detail). The readout
	// evaluator draws from the worker arena, so it reuses the buffers
	// the optimization just released instead of building a transient
	// 2^n state (Problem.BestSampled's behavior); ties resolve
	// identically, so the readout is unchanged.
	rd := qaoa.NewEvaluatorArena(pb, len(res.Gamma), job.arena)
	score, assign := rd.BestSampled(qaoa.Params{Gamma: res.Gamma, Beta: res.Beta})
	rd.Release()
	res.Objective = score
	res.Assignment = assignBits(assign, pb.Inst.Vars)
	return res, nil
}

// assignBits renders an assignment as a bitstring, character i = the
// value of variable i.
func assignBits(z uint64, vars int) string {
	b := make([]byte, vars)
	for i := 0; i < vars; i++ {
		b[i] = byte('0' + (z>>uint(i))&1)
	}
	return string(b)
}

// optimizerFor maps an API optimizer name to the paper's configuration
// (tolerance 1e-6, as in experiments.Optimizers). Unknown names return
// nil.
func optimizerFor(name string) optimize.Optimizer {
	opt, _ := optimize.ByName(name, 1e-6)
	return opt
}

// ---- HTTP handlers ----

// timed wraps a handler with the per-endpoint latency histogram and
// request counter.
func (s *Server) timed(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.mem.Count("server.http.requests", 1)
		s.mem.Observe("server.http."+route+"_ms", float64(time.Since(start).Nanoseconds())/1e6)
	}
}

func writeError(w http.ResponseWriter, e *httpError) {
	if e.code == http.StatusTooManyRequests {
		after := e.retryAfter
		if after < 1 {
			after = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(after))
	}
	writeJSON(w, e.code, map[string]string{"error": e.msg})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if herr := decodeBody(w, r, 1<<20, &req); herr != nil {
		writeError(w, herr)
		return
	}
	rs, herr := s.normalize(&req)
	if herr != nil {
		writeError(w, herr)
		return
	}
	job, outcome, herr := s.submit(&req, rs)
	if herr != nil {
		writeError(w, herr)
		return
	}
	if req.Wait {
		select {
		case <-job.Done():
		case <-r.Context().Done():
			// The submitting client is gone. Only the job's originator
			// cancels it; coalesced waiters must not abort someone
			// else's solve, and cached jobs are already finished.
			if outcome == outcomeQueued {
				s.mem.Count("server.jobs.client_disconnects", 1)
				job.Cancel()
				<-job.Done()
			}
		}
	}
	code := http.StatusAccepted
	if job.State().Terminal() {
		code = http.StatusOK
	}
	view := job.View()
	if outcome == outcomeCoalesced {
		view.Coalesced = true
	}
	writeJSON(w, code, view)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, &httpError{code: http.StatusNotFound, msg: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, &httpError{code: http.StatusNotFound, msg: "no such job"})
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	queued := len(s.queue)
	costInflight := s.adm.inflight
	s.mu.Unlock()
	status, code := "ok", http.StatusOK
	if draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	mode := "local"
	if s.cfg.Dispatcher != nil {
		mode = "coordinator"
	}
	writeJSON(w, code, map[string]any{
		"status":        status,
		"mode":          mode,
		"journaled":     s.cfg.Journal != nil,
		"api_version":   APIVersion,
		"problems":      problem.Families(),
		"queue_depth":   queued,
		"workers":       s.cfg.Workers,
		"models":        s.registry.Names(),
		"jobs":          s.jobs.len(),
		"qubit_ceiling": s.cfg.MaxNodes,
		"cost_inflight": costInflight,
		"cost_budget":   s.cfg.MaxInflightCost,
		"batch_max":     s.cfg.MaxBatch,
		"kernel":        quantum.Kernel(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.mem.WriteJSON(w)
}
