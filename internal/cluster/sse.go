package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Minimal Server-Sent Events client for the worker's
// GET /v1/jobs/{id}/events stream. Only the subset the server emits is
// parsed: "event:" and "data:" fields, blank-line dispatch, ":" comment
// lines ignored. Used by the Dispatcher to relay per-iteration traces
// coordinator-side and by qaoaload, which follows every 4th job.

// Event is one parsed SSE message.
type Event struct {
	Name string // the event: field ("iteration", "result", ...)
	Data []byte // the data: payload (single line; JSON here)
}

// EventStream is an open SSE subscription. Next blocks for the next
// event; Close aborts the underlying request.
type EventStream struct {
	body   interface{ Close() error }
	sc     *bufio.Scanner
	cancel context.CancelFunc
}

// OpenEvents subscribes to jobID's event stream on the server at base
// (e.g. "http://127.0.0.1:8080"). The stream lives until ctx is
// cancelled, Close is called, or the server ends it (after the terminal
// "result" event).
func OpenEvents(ctx context.Context, client *http.Client, base, jobID string) (*EventStream, error) {
	ctx, cancel := context.WithCancel(ctx)
	url := strings.TrimRight(base, "/") + "/v1/jobs/" + jobID + "/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("cluster: event stream for %s: HTTP %d", jobID, resp.StatusCode)
	}
	return newEventStream(resp.Body, cancel), nil
}

// maxEventLine caps one line of an event stream: a longer line ends the
// stream with bufio.ErrTooLong, the buffer grown no further.
const maxEventLine = 1 << 20

// newEventStream decodes the events in body; Close calls cancel, then
// closes body.
func newEventStream(body io.ReadCloser, cancel context.CancelFunc) *EventStream {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 4096), maxEventLine)
	return &EventStream{body: body, sc: sc, cancel: cancel}
}

// Next returns the next event, or an error once the stream ends (io.EOF
// surfaces as a generic "stream ended" error; a cancelled context as
// its error).
func (s *EventStream) Next() (Event, error) {
	var ev Event
	dispatch := false
	for s.sc.Scan() {
		line := s.sc.Bytes()
		switch {
		case len(line) == 0:
			if dispatch {
				return ev, nil
			}
		case line[0] == ':': // comment / keep-alive
		case bytes.HasPrefix(line, []byte("event:")):
			ev.Name = string(bytes.TrimSpace(line[len("event:"):]))
			dispatch = true
		case bytes.HasPrefix(line, []byte("data:")):
			ev.Data = append([]byte(nil), bytes.TrimSpace(line[len("data:"):])...)
			dispatch = true
		}
	}
	if err := s.sc.Err(); err != nil {
		return Event{}, err
	}
	return Event{}, fmt.Errorf("cluster: event stream ended")
}

// Close aborts the subscription.
func (s *EventStream) Close() error {
	s.cancel()
	return s.body.Close()
}
