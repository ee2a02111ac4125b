// Command qaoaload is the fleet smoke's traffic driver
// (scripts/cluster_smoke.sh): it offers seeded open-loop solve traffic
// to a running qaoad, follows every 4th job over its SSE event stream,
// prints one summary line, and exits 1 unless every accepted job
// completed.
//
//	qaoaload -addr http://127.0.0.1:18080 -rate 40 -duration 8s
//
// The arrival process is open-loop: requests launch on a fixed tick
// however many are still outstanding, so a fleet that cannot keep up
// shows rising latency and 429s instead of a politely slowing driver.
// The traffic is a fixed pool of 12 naive L-BFGS-B requests cycling
// through the five cold-mix families on 8 qubits at depths 2 and 3; it
// repeats, so cold solves, cache hits and coalescing all occur.
//
// This tool measures nothing: serving throughput and latency come from
// `go run ./benchmark` (workloads serve_cold_mix, serve_hot_batch and
// fleet_cold_mix).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"qaoaml/internal/cluster"
	"qaoaml/internal/problem"
	"qaoaml/internal/server"
)

// The offered traffic. The fleet smoke is the only caller, so these are
// its values, not flags.
const (
	instances = 12 // distinct requests in the pool; traffic cycles through it
	qubits    = 8
	seed      = 7
	sseEvery  = 4 // request k is followed over SSE when k%sseEvery == 0
)

var (
	depths   = []int{2, 3}
	families = []string{"maxcut", "qubo", "maxksat", "partition", "portfolio"}
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of a running qaoad")
	rate := flag.Float64("rate", 40, "open-loop arrival rate, requests per second")
	duration := flag.Duration("duration", 8*time.Second, "how long to offer traffic")
	flag.Parse()
	if *rate <= 0 || *duration <= 0 {
		fatal(errors.New("-rate and -duration must be positive"))
	}
	pool, err := buildPool()
	if err != nil {
		fatal(err)
	}
	t := offer(&http.Client{}, strings.TrimRight(*addr, "/"), pool, *rate, *duration)
	fmt.Println(t)
	if err := t.check(); err != nil {
		fatal(err)
	}
}

// buildPool generates the seeded request pool, cycling family × depth.
func buildPool() ([]server.SolveRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]server.SolveRequest, 0, instances)
	for i := 0; i < instances; i++ {
		fam := families[i%len(families)]
		spec, err := problem.RandomSpec(fam, qubits, rng)
		if err != nil {
			return nil, err
		}
		w, err := problem.WireOf(spec)
		if err != nil {
			return nil, err
		}
		pool = append(pool, server.SolveRequest{
			Problem: fam, Wire: w, Depth: depths[i%len(depths)],
			Strategy: server.StrategyNaive, Optimizer: "lbfgsb", Seed: int64(i + 1),
		})
	}
	return pool, nil
}

// tally counts how the offered items ended.
type tally struct {
	items, done, rejected, failed int64
	followed                      int64 // done items whose result arrived over SSE
}

func (t tally) String() string {
	return fmt.Sprintf("items=%d done=%d rejected=%d failed=%d sse_followed=%d",
		t.items, t.done, t.rejected, t.failed, t.followed)
}

// check is the smoke's verdict: no accepted job failed or went missing,
// something completed, and the SSE path carried at least one result.
func (t tally) check() error {
	switch {
	case t.failed != 0:
		return fmt.Errorf("%d items failed", t.failed)
	case t.done+t.rejected != t.items:
		return fmt.Errorf("done %d + rejected %d != items %d: accepted jobs went missing", t.done, t.rejected, t.items)
	case t.done == 0:
		return errors.New("no job completed")
	case t.followed == 0:
		return errors.New("no job completed over its SSE event stream")
	}
	return nil
}

// offer launches pool requests at rate for duration, then waits for
// every outstanding one to end.
func offer(client *http.Client, base string, pool []server.SolveRequest, rate float64, duration time.Duration) tally {
	var (
		mu sync.Mutex
		t  tally
		wg sync.WaitGroup
	)
	ticker := time.NewTicker(max(time.Duration(float64(time.Second)/rate), time.Microsecond))
	defer ticker.Stop()
	stop := time.After(duration)
	for k := 0; ; k++ {
		select {
		case <-ticker.C:
		case <-stop:
			wg.Wait()
			return t
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			follow := k%sseEvery == 0
			rejected, err := solve(client, base, pool[k%len(pool)], follow)
			mu.Lock()
			defer mu.Unlock()
			t.items++
			switch {
			case err != nil:
				t.failed++
				fmt.Fprintf(os.Stderr, "qaoaload: request %d: %v\n", k, err)
			case rejected:
				t.rejected++
			default:
				t.done++
				if follow {
					t.followed++
				}
			}
		}(k)
	}
}

// solve submits req and reports whether it was rejected (429) or, if
// accepted, any reason it did not end done. A followed request is
// submitted wait=false and its result read off the job's event stream.
func solve(client *http.Client, base string, req server.SolveRequest, follow bool) (rejected bool, err error) {
	req.Wait = !follow
	blob, err := json.Marshal(req)
	if err != nil {
		return false, err
	}
	resp, err := client.Post(base+"/v1/solve", "application/json", bytes.NewReader(blob))
	if err != nil {
		return false, err
	}
	var view server.JobView
	decodeErr := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return true, nil
	case resp.StatusCode != http.StatusOK && !(follow && resp.StatusCode == http.StatusAccepted):
		return false, fmt.Errorf("POST /v1/solve: %s", resp.Status)
	case decodeErr != nil:
		return false, fmt.Errorf("POST /v1/solve: %w", decodeErr)
	}
	if follow {
		// 202 for a queued job, 200 for a cache hit born terminal;
		// either way the stream ends on the result.
		if view, err = result(client, base, view.ID); err != nil {
			return false, err
		}
	}
	if view.State != server.StateDone {
		return false, fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
	}
	return false, nil
}

// result follows job id's event stream to its terminal result event.
func result(client *http.Client, base, id string) (server.JobView, error) {
	var view server.JobView
	stream, err := cluster.OpenEvents(context.Background(), client, base, id)
	if err != nil {
		return view, err
	}
	defer stream.Close()
	for {
		ev, err := stream.Next()
		if err != nil {
			return view, fmt.Errorf("job %s events: %w", id, err)
		}
		if ev.Name == server.EventResult {
			return view, json.Unmarshal(ev.Data, &view)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qaoaload:", err)
	os.Exit(1)
}
