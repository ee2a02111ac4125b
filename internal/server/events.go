package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"qaoaml/internal/telemetry"
)

// Per-job progress streaming. Every fresh job carries an eventBus; the
// solve path (local optimizers via a telemetry.Tee, or the cluster
// dispatcher relaying a worker's stream) publishes per-iteration
// optimizer traces into it, and GET /v1/jobs/{id}/events serves the bus
// as Server-Sent Events: the full history first, then live events, then
// one terminal "result" event carrying the job view. The bus closes
// when the job reaches a terminal state, so streams always end with the
// result even if the subscriber arrived after the last iteration.

const (
	// eventHistoryCap bounds the retained per-job event history; a deep
	// solve beyond it keeps streaming to live subscribers but late
	// joiners see only the first eventHistoryCap iterations (the
	// terminal result event is never dropped).
	eventHistoryCap = 4096
	// subBuffer is the per-subscriber channel depth. A subscriber
	// draining slower than the optimizer iterates misses the events that
	// find its buffer full: each is dropped for that subscriber alone,
	// without blocking the solve, and no drop is counted.
	subBuffer = 256
)

// SSE event names on the /v1/jobs/{id}/events stream.
const (
	EventIteration = "iteration" // data: telemetry.IterEvent
	EventResult    = "result"    // data: JobView (terminal; ends the stream)
)

// eventBus is a one-job publish/subscribe channel with bounded history.
type eventBus struct {
	mu      sync.Mutex
	history []telemetry.IterEvent
	subs    map[chan telemetry.IterEvent]struct{}
	closed  bool
}

func newEventBus() *eventBus {
	return &eventBus{subs: make(map[chan telemetry.IterEvent]struct{})}
}

// publish records the event (history stops growing at eventHistoryCap)
// and fans it out without blocking: a subscriber whose buffer is full
// does not get the event, and the drop is not counted.
func (b *eventBus) publish(ev telemetry.IterEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if len(b.history) < eventHistoryCap {
		b.history = append(b.history, ev)
	}
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe atomically snapshots the history and registers a live
// channel, so a subscriber sees every event exactly once (up to
// buffer-overflow drops). The channel is closed when the bus closes.
func (b *eventBus) subscribe() ([]telemetry.IterEvent, chan telemetry.IterEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	history := append([]telemetry.IterEvent(nil), b.history...)
	ch := make(chan telemetry.IterEvent, subBuffer)
	if b.closed {
		close(ch)
		return history, ch
	}
	b.subs[ch] = struct{}{}
	return history, ch
}

// unsubscribe removes the channel; safe after close.
func (b *eventBus) unsubscribe(ch chan telemetry.IterEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[ch]; ok {
		delete(b.subs, ch)
	}
}

// close ends the stream: all subscriber channels are closed (after
// their buffered events drain) and further publishes are dropped.
func (b *eventBus) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for ch := range b.subs {
		close(ch)
	}
	b.subs = nil
}

// writeSSE frames one Server-Sent Event.
func writeSSE(w http.ResponseWriter, event string, data any) error {
	blob, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, blob)
	return err
}

// handleJobEvents is GET /v1/jobs/{id}/events: an SSE stream of the
// job's per-iteration optimizer traces, terminated by one "result"
// event with the job view. Terminal jobs (including cache hits, which
// never had a bus) get the result event immediately. The stream works
// identically whether the job solved locally or was dispatched to a
// worker — the coordinator relays the worker's stream into the same
// bus.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, &httpError{code: http.StatusNotFound, msg: "no such job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &httpError{code: http.StatusInternalServerError, msg: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	s.mem.Count("server.events.streams", 1)

	emit := func(event string, data any) bool {
		if err := writeSSE(w, event, data); err != nil {
			return false
		}
		flusher.Flush()
		s.mem.Count("server.events.sent", 1)
		return true
	}

	if job.bus != nil {
		history, live := job.bus.subscribe()
		defer job.bus.unsubscribe(live)
		for _, ev := range history {
			if !emit(EventIteration, ev) {
				return
			}
		}
	stream:
		for {
			select {
			case ev, ok := <-live:
				if !ok {
					break stream // job terminal: bus closed
				}
				if !emit(EventIteration, ev) {
					return
				}
			case <-r.Context().Done():
				return
			}
		}
	} else {
		// No bus: a cache hit born terminal. Wait (it already is done)
		// so the code path below is uniform.
		select {
		case <-job.Done():
		case <-r.Context().Done():
			return
		}
	}
	emit(EventResult, job.View())
}
