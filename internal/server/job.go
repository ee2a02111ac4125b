package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/telemetry"
)

// JobState is the lifecycle of one solve job.
type JobState string

// Job lifecycle: Queued → Running → one of Done / Failed / Cancelled.
// Cache hits are born Done.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// SolveResult is the payload of a completed job. AR is the MaxCut
// approximation ratio for maxcut problems and the [0, 1]-normalized
// score for every other family; Objective is the best sampled Score
// (direction-normalized, so bigger is always better) and Assignment
// the corresponding decision-variable bitstring (character i = value
// of variable i; quadratization auxiliaries are masked off).
type SolveResult struct {
	Strategy    string    `json:"strategy"`
	Problem     string    `json:"problem,omitempty"`
	AR          float64   `json:"ar"`
	Gamma       []float64 `json:"gamma"`
	Beta        []float64 `json:"beta"`
	NFev        int       `json:"nfev"`
	Level1AR    float64   `json:"level1_ar,omitempty"` // two-level only
	Objective   float64   `json:"objective,omitempty"`
	Assignment  string    `json:"assignment,omitempty"`
	Fingerprint string    `json:"fingerprint"`
}

// JobView is the JSON representation served by the jobs endpoints.
type JobView struct {
	ID        string       `json:"id"`
	State     JobState     `json:"state"`
	Cached    bool         `json:"cached,omitempty"`    // served from the result cache
	Coalesced bool         `json:"coalesced,omitempty"` // attached to an identical in-flight job
	Result    *SolveResult `json:"result,omitempty"`
	Error     string       `json:"error,omitempty"`
	Enqueued  time.Time    `json:"enqueued"`
	Started   *time.Time   `json:"started,omitempty"`
	Finished  *time.Time   `json:"finished,omitempty"`
}

// Job is one solve instance moving through the queue. The context is
// derived from the server's base context plus the per-job deadline;
// cancelling it (explicitly, by deadline, or by a waiting client
// disconnecting) aborts the optimizer within one iteration.
type Job struct {
	ID  string
	Key string // canonical cache key (fingerprint + solve options)

	// What normalize resolved, carried to the worker (unset on cache
	// hits, which are born finished): the request, its spec, the compiled
	// instance (nil for MaxCut, solved from spec) and its fingerprint.
	req  SolveRequest
	spec problem.Spec
	inst *problem.Instance
	fp   string
	cost int64 // admission-control price (0: cache hit, never admitted)

	// arena is the owning worker's buffer arena, set by that worker
	// just before runJob and read only on its goroutine.
	arena *qaoa.Arena

	// bus streams per-iteration optimizer traces to SSE subscribers.
	// Fresh jobs get one at submission; cache hits (born terminal) have
	// none. Closed exactly once when the job reaches a terminal state.
	bus *eventBus

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	state     JobState
	cached    bool
	coalesced bool // at least one later identical request attached
	result    *SolveResult
	errMsg    string
	enqueued  time.Time
	started   time.Time
	finished  time.Time
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel aborts the job: queued jobs finish as cancelled without
// running, running jobs are cancelled via their context within one
// optimizer iteration. Terminal jobs are unaffected.
func (j *Job) Cancel() { j.cancel() }

// View snapshots the job for JSON serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		State:     j.state,
		Cached:    j.cached,
		Coalesced: j.coalesced,
		Result:    j.result,
		Error:     j.errMsg,
		Enqueued:  j.enqueued,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// setRunning transitions Queued → Running; it reports false if the job
// is already terminal (e.g. cancelled while queued).
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish moves the job to a terminal state; only the first call wins.
// With queuedOnly it leaves only a job that never started — the
// queued-cancellation path, where no worker owns the job — and reports
// false for a running one (its worker finishes it instead). Waiters
// stay asleep until wake: the server first publishes the answer to its
// cache (afterFinish), so a reply is never ahead of a repeat's hit.
func (j *Job) finish(queuedOnly bool, state JobState, res *SolveResult, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || queuedOnly && j.state != StateQueued {
		return false
	}
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.finished = time.Now()
	return true
}

// wake releases the deadline timer and every waiter: Done's channel and
// the SSE subscribers.
func (j *Job) wake() {
	j.cancel()
	close(j.done)
	if j.bus != nil {
		j.bus.close()
	}
}

// publish forwards one iteration event to the job's SSE subscribers;
// safe to call with no bus (cache hits) or concurrently with finish.
func (j *Job) publish(ev telemetry.IterEvent) {
	if j.bus != nil {
		j.bus.publish(ev)
	}
}

// jobStore indexes jobs by id and evicts the oldest finished records
// beyond a cap, so an always-on daemon does not grow without bound.
type jobStore struct {
	mu    sync.Mutex
	cap   int
	byID  map[string]*Job
	order *list.List // *Job in insertion order
	seq   uint64
}

func newJobStore(cap int) *jobStore {
	return &jobStore{cap: cap, byID: make(map[string]*Job), order: list.New()}
}

// nextID issues a process-unique job id.
func (s *jobStore) nextID() string {
	s.mu.Lock()
	s.seq++
	id := s.seq
	s.mu.Unlock()
	return fmt.Sprintf("job-%08d", id)
}

// add registers the job and prunes old terminal records over the cap.
func (s *jobStore) add(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID[j.ID] = j
	s.order.PushBack(j)
	for s.order.Len() > s.cap {
		evicted := false
		for e := s.order.Front(); e != nil; e = e.Next() {
			old := e.Value.(*Job)
			if old.State().Terminal() {
				s.order.Remove(e)
				delete(s.byID, old.ID)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything live; let the store grow rather than drop state
		}
	}
}

// get looks a job up by id.
func (s *jobStore) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

// len returns the number of retained job records.
func (s *jobStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}
