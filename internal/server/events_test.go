package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"qaoaml/internal/problem"
	"qaoaml/internal/telemetry"
)

// sseEvent is one parsed frame of a test-read event stream.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes the whole stream (the server closes it after the
// terminal result event).
func readSSE(t *testing.T, url string) []sseEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" || cur.data != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// A solved job's event stream replays the full per-iteration optimizer
// trace and ends with the terminal result — even for subscribers that
// arrive after the job finished (history replay).
func TestJobEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	nodes, edges := testInstance(21)
	code, view := postSolve(t, ts.URL, SolveRequest{
		Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 2, Strategy: StrategyNaive, Seed: 5, Wait: true,
	})
	if code != http.StatusOK || view.State != StateDone {
		t.Fatalf("solve: %d %+v", code, view)
	}

	events := readSSE(t, ts.URL+"/v1/jobs/"+view.ID+"/events")
	if len(events) < 2 {
		t.Fatalf("stream carried %d events, want iterations + result", len(events))
	}
	last := events[len(events)-1]
	if last.name != EventResult {
		t.Fatalf("stream ended with %q, want %q", last.name, EventResult)
	}
	var final JobView
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil || final.Result.Fingerprint != view.Result.Fingerprint {
		t.Fatalf("terminal event view %+v does not match job %+v", final, view)
	}
	prevFev := 0
	for i, ev := range events[:len(events)-1] {
		if ev.name != EventIteration {
			t.Fatalf("event %d is %q, want %q", i, ev.name, EventIteration)
		}
		var iter telemetry.IterEvent
		if err := json.Unmarshal([]byte(ev.data), &iter); err != nil {
			t.Fatalf("iteration %d payload %q: %v", i, ev.data, err)
		}
		if iter.NFev < prevFev {
			t.Fatalf("iteration %d: nfev went backwards (%d -> %d)", i, prevFev, iter.NFev)
		}
		prevFev = iter.NFev
	}
	// The terminal count may exceed the last trace event's (evaluations
	// after the final iteration callback) but never trail it.
	if final.Result.NFev < prevFev {
		t.Fatalf("result nfev %d below last traced iteration's %d", final.Result.NFev, prevFev)
	}
}

// A cache hit is born terminal with no bus: its stream is exactly one
// result event.
func TestJobEventsCachedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	nodes, edges := testInstance(22)
	req := SolveRequest{Wire: problem.Wire{Nodes: nodes, Edges: edges}, Depth: 2, Strategy: StrategyNaive, Seed: 6, Wait: true}
	if code, _ := postSolve(t, ts.URL, req); code != http.StatusOK {
		t.Fatal("priming solve failed")
	}
	code, view := postSolve(t, ts.URL, req)
	if code != http.StatusOK || !view.Cached {
		t.Fatalf("repeat not cached: %d %+v", code, view)
	}
	events := readSSE(t, ts.URL+"/v1/jobs/"+view.ID+"/events")
	if len(events) != 1 || events[0].name != EventResult {
		t.Fatalf("cached job stream = %+v, want exactly one result event", events)
	}
}

// Unknown job ids 404 instead of opening a stream.
func TestJobEventsNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-99999999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}
