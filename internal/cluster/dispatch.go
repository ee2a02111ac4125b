package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"qaoaml/internal/server"
	"qaoaml/internal/telemetry"
)

// Dispatcher is the coordinator side of the coordinator/worker split:
// it implements server.Dispatcher by fanning each admitted job out to a
// worker qaoad over HTTP. Routing is consistent-hashed on the instance
// fingerprint (Ring), so repeat requests land on the worker whose
// result cache owns the key; failures walk the ring's failover
// sequence with exponential backoff; each worker's own admission
// control bounds its load (a busy worker answers 429 and the job moves
// on); and the job's context threads through end-to-end — cancelling it
// aborts the remote optimizer via DELETE /v1/jobs/{id}.
//
// Determinism makes all of this safe: a solve re-dispatched to a
// different worker (even one racing a still-running first attempt the
// coordinator gave up on) returns a bit-identical result.

// DispatcherConfig configures a Dispatcher. Workers is required.
type DispatcherConfig struct {
	// Workers is the fleet roster: base URLs like "http://127.0.0.1:8081".
	Workers []string
	// HealthInterval is the worker health-check period (default 1s).
	HealthInterval time.Duration
	// Recorder receives dispatch telemetry (nil = none).
	Recorder telemetry.Recorder
}

const (
	dispatchRounds      = 3 // full passes over a key's failover sequence before the job fails
	dispatchBackoffBase = 50 * time.Millisecond
	dispatchBackoffCap  = 2 * time.Second
	healthTimeout       = 2 * time.Second
	cancelTimeout       = 2 * time.Second
)

// Dispatcher implements server.Dispatcher over a worker fleet.
type Dispatcher struct {
	ring   *Ring
	client *http.Client // no timeout: per-call contexts bound everything
	mem    telemetry.Recorder

	mu sync.Mutex
	up map[string]bool // worker address → last known liveness

	stop   context.CancelFunc
	health sync.WaitGroup
}

var _ server.Dispatcher = (*Dispatcher)(nil)

// NewDispatcher builds the dispatcher and starts its health-check loop.
// Call Close to stop it.
func NewDispatcher(cfg DispatcherConfig) (*Dispatcher, error) {
	ring := NewRing(cfg.Workers)
	if ring.Len() == 0 {
		return nil, errors.New("cluster: dispatcher needs at least one worker")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	d := &Dispatcher{
		ring:   ring,
		client: &http.Client{},
		mem:    telemetry.OrNop(cfg.Recorder),
		up:     make(map[string]bool, ring.Len()),
	}
	for _, a := range ring.Addrs() {
		d.up[a] = true
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.stop = cancel
	d.health.Add(1)
	go d.healthLoop(ctx, cfg.HealthInterval)
	return d, nil
}

// Close stops the health-check loop. In-flight dispatches finish on
// their own contexts.
func (d *Dispatcher) Close() {
	d.stop()
	d.health.Wait()
}

// permanentError marks a failure retrying cannot fix (worker rejected
// the request as invalid).
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

// Dispatch implements server.Dispatcher: route by fingerprint, walk
// the failover sequence with backoff between rounds, relay iteration
// events, and propagate cancellation. cost is unused: the signature is
// server.Dispatcher's, which benchmark/serve.go's timedDispatcher also
// implements.
func (d *Dispatcher) Dispatch(ctx context.Context, req server.SolveRequest, fingerprint string, cost int64, emit func(telemetry.IterEvent)) (*server.SolveResult, error) {
	seq := d.ring.Sequence(fingerprint)
	var lastErr error
	for round := 0; round < dispatchRounds; round++ {
		if round > 0 {
			backoff := dispatchBackoffBase << uint(round-1)
			if backoff > dispatchBackoffCap {
				backoff = dispatchBackoffCap
			}
			d.mem.Count("cluster.dispatch.backoffs", 1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		// First pass prefers live workers; if every worker is marked
		// down, try them all anyway — the mark is a hint, and a fleet
		// that refuses to attempt anything can never discover recovery.
		for _, skipDown := range []bool{true, false} {
			tried := false
			for _, addr := range seq {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				if skipDown && d.isDown(addr) {
					continue
				}
				tried = true
				d.mem.Count("cluster.dispatch.attempts", 1)
				res, err := d.dispatchOne(ctx, addr, req, emit)
				if err == nil {
					return res, nil
				}
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				var perm permanentError
				if errors.As(err, &perm) {
					return nil, perm.err
				}
				lastErr = fmt.Errorf("worker %s: %w", addr, err)
				d.mem.Count("cluster.dispatch.retries", 1)
			}
			if tried {
				break // a real attempt was made this round; back off, don't hammer
			}
		}
	}
	if lastErr == nil {
		lastErr = errors.New("no dispatch attempt succeeded")
	}
	d.mem.Count("cluster.dispatch.failures", 1)
	return nil, fmt.Errorf("cluster: job undispatchable after %d rounds: %w", dispatchRounds, lastErr)
}

// isDown reports whether addr is marked down.
func (d *Dispatcher) isDown(addr string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.up[addr]
}

// markDown flags a worker after a transport failure; the health loop
// (or a successful later call) lifts the flag.
func (d *Dispatcher) markDown(addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.up[addr] {
		d.up[addr] = false
		d.mem.Count("cluster.workers.marked_down", 1)
	}
}

func (d *Dispatcher) markUp(addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if up, ok := d.up[addr]; ok && !up {
		d.up[addr] = true
		d.mem.Count("cluster.workers.marked_up", 1)
	}
}

func (d *Dispatcher) healthLoop(ctx context.Context, interval time.Duration) {
	defer d.health.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, addr := range d.ring.Addrs() {
			hctx, cancel := context.WithTimeout(ctx, healthTimeout)
			req, err := http.NewRequestWithContext(hctx, http.MethodGet, strings.TrimRight(addr, "/")+"/healthz", nil)
			if err == nil {
				var resp *http.Response
				resp, err = d.client.Do(req)
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("healthz HTTP %d", resp.StatusCode)
					}
				}
			}
			cancel()
			if err != nil {
				d.markDown(addr)
			} else {
				d.markUp(addr)
			}
		}
	}
}

// dispatchOne runs one job attempt against one worker: submit with
// wait=false, follow the SSE event stream relaying iteration traces,
// and return the terminal result. Context cancellation cancels the
// remote job before returning.
func (d *Dispatcher) dispatchOne(ctx context.Context, addr string, req server.SolveRequest, emit func(telemetry.IterEvent)) (*server.SolveResult, error) {
	req.Wait = false
	body, err := json.Marshal(req)
	if err != nil {
		return nil, permanentError{err}
	}
	base := strings.TrimRight(addr, "/")
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/solve", strings.NewReader(string(body)))
	if err != nil {
		return nil, permanentError{err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(hreq)
	if err != nil {
		d.markDown(addr)
		return nil, err
	}
	var view server.JobView
	decodeErr := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
		if decodeErr != nil {
			return nil, decodeErr
		}
		if view.Cached {
			// Terminal on arrival: the worker's cache shard owned the key.
			d.mem.Count("cluster.dispatch.remote_cache_hits", 1)
			return terminalResult(view)
		}
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, fmt.Errorf("worker busy (HTTP 429)")
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return nil, permanentError{fmt.Errorf("worker rejected job: HTTP %d", resp.StatusCode)}
	default:
		return nil, fmt.Errorf("worker HTTP %d", resp.StatusCode)
	}

	// A job the worker solves: follow the event stream to the terminal
	// result, even if the job has already finished (the stream replays
	// its history). Any break in the stream is a worker failure
	// (retryable — determinism makes a second attempt elsewhere return
	// the identical result).
	stream, err := OpenEvents(ctx, d.client, base, view.ID)
	if err != nil {
		if ctx.Err() != nil {
			d.cancelRemote(base, view.ID)
			return nil, ctx.Err()
		}
		d.markDown(addr)
		return nil, err
	}
	defer stream.Close()
	for {
		ev, err := stream.Next()
		if err != nil {
			if ctx.Err() != nil {
				d.cancelRemote(base, view.ID)
				return nil, ctx.Err()
			}
			d.markDown(addr)
			return nil, fmt.Errorf("event stream broke: %w", err)
		}
		switch ev.Name {
		case server.EventIteration:
			if emit == nil {
				continue
			}
			var iter telemetry.IterEvent
			if json.Unmarshal(ev.Data, &iter) == nil {
				emit(iter)
			}
		case server.EventResult:
			var final server.JobView
			if err := json.Unmarshal(ev.Data, &final); err != nil {
				return nil, err
			}
			return terminalResult(final)
		}
	}
}

// cancelRemote aborts a job on a worker after the coordinator-side
// context died; best-effort with its own short deadline.
func (d *Dispatcher) cancelRemote(base, jobID string) {
	ctx, cancel := context.WithTimeout(context.Background(), cancelTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return
	}
	if resp, err := d.client.Do(req); err == nil {
		resp.Body.Close()
		d.mem.Count("cluster.dispatch.remote_cancels", 1)
	}
}

// terminalResult maps a terminal JobView to the dispatch outcome.
func terminalResult(view server.JobView) (*server.SolveResult, error) {
	switch view.State {
	case server.StateDone:
		if view.Result == nil {
			return nil, errors.New("done job carried no result")
		}
		return view.Result, nil
	case server.StateFailed:
		return nil, permanentError{fmt.Errorf("remote solve failed: %s", view.Error)}
	case server.StateCancelled:
		// A remote cancellation with a live coordinator context means
		// the worker's own deadline fired; retrying elsewhere would hit
		// the same deadline, so surface it.
		return nil, permanentError{errors.New("remote solve cancelled: " + view.Error)}
	default:
		return nil, fmt.Errorf("job ended in non-terminal state %q", view.State)
	}
}
