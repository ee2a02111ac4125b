// Command qaoaload is the synthetic traffic generator for qaoad: it
// drives a live server (or a self-hosted one) with a seeded, mixed
// workload at a fixed open-loop arrival rate and writes the measured
// serving numbers — throughput, latency percentiles, cache hit rate,
// workspace-reuse rate — as JSON (BENCH_server.json by default),
// merging prior runs into its history.
//
// The arrival process is open-loop: requests are launched on a fixed
// tick regardless of how many are still outstanding, so a server that
// cannot keep up shows up as rising latency and 429s instead of the
// generator politely slowing down — the failure mode a fleet actually
// has under heavy traffic.
//
//	qaoaload                              # self-hosted server, defaults
//	qaoaload -rate 50 -duration 10s       # 50 req/s for 10 s
//	qaoaload -batch 8                     # POST /v1/solve/batch, 8 items per request
//	qaoaload -addr http://host:8080       # drive a remote qaoad
//	qaoaload -check BENCH_server.json     # validate a report's schema and exit
//
// The workload is a seeded pool of -instances naive L-BFGS-B requests
// cycling through the benchmark's five families (maxcut, qubo, maxksat,
// partition, portfolio) × -sizes × -depths; the pool repeats, so
// steady-state traffic mixes cold solves, result-cache hits and
// single-flight coalescing exactly as repeated production traffic
// would. A self-hosted server runs with qaoad's defaults.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"qaoaml/internal/cluster"
	"qaoaml/internal/problem"
	"qaoaml/internal/server"
)

// Entry is one load-test result in the emitted JSON.
type Entry struct {
	Name       string  `json:"name"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	DurationS  float64 `json:"duration_s"`
	OfferedRPS float64 `json:"offered_rps"`
	BatchSize  int     `json:"batch_size,omitempty"`

	Requests  int64 `json:"requests"`           // HTTP requests sent
	Items     int64 `json:"items"`              // solve specs sent (= Requests unless batching)
	Done      int64 `json:"done"`               // items that reached state done
	Cached    int64 `json:"cached"`             // … of which served from the result cache
	Coalesced int64 `json:"coalesced"`          // … of which attached to an identical in-flight job
	Deduped   int64 `json:"deduped,omitempty"`  // batch items collapsed intra-batch
	Rejected  int64 `json:"rejected,omitempty"` // 429s (queue full / cost budget)
	Failed    int64 `json:"failed,omitempty"`   // transport errors, 5xx, failed/cancelled jobs

	ThroughputRPS float64 `json:"throughput_rps"` // completed items per second
	P50Ms         float64 `json:"p50_ms"`
	P90Ms         float64 `json:"p90_ms"`
	P99Ms         float64 `json:"p99_ms"`

	// CacheHitRate is hits/(hits+misses) over the run (server counters,
	// so coalesced requests count as misses); WorkspaceReuseRate is
	// arena hits/gets — the fraction of state-vector buffer requests
	// served without allocating.
	CacheHitRate       float64 `json:"cache_hit_rate"`
	WorkspaceReuseRate float64 `json:"workspace_reuse_rate"`
	FevTotal           int64   `json:"fev_total,omitempty"` // optimizer objective calls spent

	// SSE sampling (-sse): a fraction of requests are submitted
	// wait=false and followed over GET /v1/jobs/{id}/events instead of
	// blocking on the response. TimeToFirstEvent is the mean delay from
	// submission to the first streamed event (how quickly progress
	// becomes visible); EventsPerSec is streamed events over summed
	// stream lifetime.
	SSESampled            int64   `json:"sse_sampled,omitempty"`
	SSETimeToFirstEventMs float64 `json:"sse_ttfe_ms,omitempty"`
	SSEEventsPerSec       float64 `json:"sse_events_per_sec,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Package    string   `json:"package"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Timestamp  string   `json:"timestamp"`
	History    []string `json:"history,omitempty"`
	Entries    []Entry  `json:"entries"`
}

// maxHistory caps how many prior-run timestamps a report accumulates.
const maxHistory = 10

func main() {
	var (
		addr      = flag.String("addr", "", "base URL of a running qaoad (empty = self-host an in-process server)")
		rate      = flag.Float64("rate", 20, "open-loop arrival rate, requests per second")
		duration  = flag.Duration("duration", 5*time.Second, "how long to offer load")
		seed      = flag.Int64("seed", 1, "workload RNG seed (instances and request order are deterministic)")
		instances = flag.Int("instances", 16, "distinct instances in the request pool (traffic cycles through it)")
		sizes     = flag.String("sizes", "8", "comma-separated instance sizes (qubits)")
		depths    = flag.String("depths", "2", "comma-separated circuit depths")
		batch     = flag.Int("batch", 0, "items per POST /v1/solve/batch request (0 = individual /v1/solve)")
		sse       = flag.Float64("sse", 0, "fraction of solve requests to follow via the SSE event stream (0 = off; incompatible with -batch)")
		out       = flag.String("out", "BENCH_server.json", "output file ('-' = stdout)")
		check     = flag.String("check", "", "validate an existing report file and exit")
	)
	flag.Parse()
	if *check != "" {
		if err := checkReport(*check); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "qaoaload: %s ok\n", *check)
		return
	}
	if *rate <= 0 || *duration <= 0 || *instances < 1 || *batch < 0 {
		fatal(fmt.Errorf("-rate and -duration must be positive, -instances >= 1, -batch >= 0"))
	}
	if *sse < 0 || *sse > 1 {
		fatal(fmt.Errorf("-sse must be in [0, 1]"))
	}
	if *sse > 0 && *batch > 0 {
		fatal(fmt.Errorf("-sse samples individual solves; drop -batch"))
	}
	sseEvery := 0 // sample every Nth request
	if *sse > 0 {
		sseEvery = int(1/(*sse) + 0.5)
		if sseEvery < 1 {
			sseEvery = 1
		}
	}

	pool, err := buildPool(splitInts(*sizes), splitInts(*depths), *instances, *seed)
	if err != nil {
		fatal(err)
	}

	base := strings.TrimRight(*addr, "/")
	var shutdown func()
	if base == "" {
		base, shutdown, err = selfHost()
		if err != nil {
			fatal(err)
		}
		defer shutdown()
	}

	before, err := scrapeCounters(base)
	if err != nil {
		fatal(fmt.Errorf("scraping /metrics: %w (is the server up?)", err))
	}

	e := offerLoad(base, pool, *rate, *duration, *batch, sseEvery)

	after, err := scrapeCounters(base)
	if err != nil {
		fatal(fmt.Errorf("scraping /metrics after the run: %w", err))
	}
	hits := after["server.cache.hits"] - before["server.cache.hits"]
	misses := after["server.cache.misses"] - before["server.cache.misses"]
	if hits+misses > 0 {
		e.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	gets := after["server.arena.gets"] - before["server.arena.gets"]
	ahits := after["server.arena.hits"] - before["server.arena.hits"]
	if gets > 0 {
		e.WorkspaceReuseRate = float64(ahits) / float64(gets)
	}
	e.FevTotal = after["optimize.fev_total"] - before["optimize.fev_total"]

	e.Name = "mix/naive-rps" + strconv.FormatFloat(*rate, 'f', -1, 64)
	if *batch > 0 {
		e.Name += "-b" + strconv.Itoa(*batch)
	}
	e.GOMAXPROCS = runtime.GOMAXPROCS(0)
	e.OfferedRPS = *rate
	e.BatchSize = *batch

	fmt.Fprintf(os.Stderr, "%-32s %8.1f items/s  p50 %.1fms  p99 %.1fms  cache %.0f%%  reuse %.0f%%  (%d items, %d rejected, %d failed)\n",
		e.Name, e.ThroughputRPS, e.P50Ms, e.P99Ms, 100*e.CacheHitRate, 100*e.WorkspaceReuseRate, e.Items, e.Rejected, e.Failed)
	if e.SSESampled > 0 {
		fmt.Fprintf(os.Stderr, "%-32s %8d streams   ttfe %.1fms  %.1f events/s\n",
			"  sse", e.SSESampled, e.SSETimeToFirstEventMs, e.SSEEventsPerSec)
	}

	rep := Report{
		Package:    "qaoaml",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Entries:    []Entry{e},
	}
	if *out == "-" {
		rep.write(os.Stdout)
		return
	}
	rep.merge(*out)
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	rep.write(f)
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d entries)\n", *out, len(rep.Entries))
}

// families is the pool's mix: the benchmark's five cold-mix families.
var families = []string{"maxcut", "qubo", "maxksat", "partition", "portfolio"}

// buildPool generates the seeded request pool, cycling family × size ×
// depth across instances. Every request is Wait=true: the generator
// measures end-to-end solve latency, not enqueue latency.
func buildPool(sizes, depths []int, instances int, seed int64) ([]server.SolveRequest, error) {
	if len(sizes) == 0 || len(depths) == 0 {
		return nil, fmt.Errorf("need at least one size and depth")
	}
	rng := rand.New(rand.NewSource(seed))
	pool := make([]server.SolveRequest, 0, instances)
	for i := 0; i < instances; i++ {
		fam := families[i%len(families)]
		spec, err := problem.RandomSpec(fam, sizes[(i/len(families))%len(sizes)], rng)
		if err != nil {
			return nil, err
		}
		w, err := problem.WireOf(spec)
		if err != nil {
			return nil, err
		}
		pool = append(pool, server.SolveRequest{
			Problem: fam, Wire: w, Depth: depths[i%len(depths)],
			Strategy: server.StrategyNaive, Optimizer: "lbfgsb", Seed: int64(i + 1), Wait: true,
		})
	}
	return pool, nil
}

// collector aggregates per-request outcomes under one lock.
type collector struct {
	mu        sync.Mutex
	latencies []float64 // ms, one per HTTP request
	e         Entry

	// SSE sampling accumulators (reduced into e after the run).
	sseTTFEMsSum float64 // sum of time-to-first-event, ms
	sseStreamS   float64 // summed stream lifetimes, seconds
	sseEvents    int64   // events received across sampled streams
}

// offerLoad drives the server at the fixed arrival rate for the given
// duration, then waits for every outstanding request to return. When
// sseEvery > 0 every sseEvery-th solve is followed over its SSE event
// stream instead of blocking on the response.
func offerLoad(base string, pool []server.SolveRequest, rate float64, duration time.Duration, batch, sseEvery int) Entry {
	client := &http.Client{} // no client timeout: the server bounds jobs
	col := &collector{}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stop := time.After(duration)
	start := time.Now()
	var wg sync.WaitGroup
	k := 0
loop:
	for {
		select {
		case <-ticker.C:
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				switch {
				case batch > 0:
					doBatch(client, base, pool, k, batch, col)
				case sseEvery > 0 && k%sseEvery == 0:
					doSolveSSE(client, base, pool[k%len(pool)], col)
				default:
					doSolve(client, base, pool[k%len(pool)], col)
				}
			}(k)
			k++
		case <-stop:
			break loop
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	e := col.e
	e.DurationS = elapsed
	sort.Float64s(col.latencies)
	e.P50Ms = percentile(col.latencies, 50)
	e.P90Ms = percentile(col.latencies, 90)
	e.P99Ms = percentile(col.latencies, 99)
	if elapsed > 0 {
		e.ThroughputRPS = float64(e.Done) / elapsed
	}
	if e.SSESampled > 0 {
		e.SSETimeToFirstEventMs = col.sseTTFEMsSum / float64(e.SSESampled)
		if col.sseStreamS > 0 {
			e.SSEEventsPerSec = float64(col.sseEvents) / col.sseStreamS
		}
	}
	return e
}

// doSolve sends one POST /v1/solve and records its outcome.
func doSolve(client *http.Client, base string, req server.SolveRequest, col *collector) {
	blob, _ := json.Marshal(req)
	start := time.Now()
	resp, err := client.Post(base+"/v1/solve", "application/json", bytes.NewReader(blob))
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	col.mu.Lock()
	defer col.mu.Unlock()
	col.e.Requests++
	col.e.Items++
	col.latencies = append(col.latencies, ms)
	if err != nil {
		col.e.Failed++
		return
	}
	defer resp.Body.Close()
	var view server.JobView
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		col.e.Rejected++
	case resp.StatusCode != http.StatusOK:
		col.e.Failed++
	case json.NewDecoder(resp.Body).Decode(&view) != nil:
		col.e.Failed++
	default:
		col.countView(&view)
	}
}

// doSolveSSE submits one solve without waiting, then follows the job's
// SSE event stream to its terminal result, recording how quickly the
// first event arrived and the stream's event rate. Latency for sampled
// requests is submit-to-terminal-event, so they remain comparable to
// blocking solves.
func doSolveSSE(client *http.Client, base string, req server.SolveRequest, col *collector) {
	req.Wait = false
	blob, _ := json.Marshal(req)
	start := time.Now()

	fail := func() {
		col.mu.Lock()
		defer col.mu.Unlock()
		col.e.Requests++
		col.e.Items++
		col.e.Failed++
		col.latencies = append(col.latencies, float64(time.Since(start).Nanoseconds())/1e6)
	}

	resp, err := client.Post(base+"/v1/solve", "application/json", bytes.NewReader(blob))
	if err != nil {
		fail()
		return
	}
	var view server.JobView
	decodeErr := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		col.mu.Lock()
		defer col.mu.Unlock()
		col.e.Requests++
		col.e.Items++
		col.e.Rejected++
		col.latencies = append(col.latencies, float64(time.Since(start).Nanoseconds())/1e6)
		return
	}
	// 202 for a fresh/inflight job, 200 for a cache hit born terminal;
	// either way the event stream replays up to the result.
	if (resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK) || decodeErr != nil {
		fail()
		return
	}

	stream, err := cluster.OpenEvents(context.Background(), client, base, view.ID)
	if err != nil {
		fail()
		return
	}
	defer stream.Close()

	var (
		ttfeMs float64
		events int64
		final  *server.JobView
	)
	for {
		ev, err := stream.Next()
		if err != nil {
			break
		}
		if events == 0 {
			ttfeMs = float64(time.Since(start).Nanoseconds()) / 1e6
		}
		events++
		if ev.Name == server.EventResult {
			var v server.JobView
			if json.Unmarshal(ev.Data, &v) == nil {
				final = &v
			}
			break
		}
	}
	totalMs := float64(time.Since(start).Nanoseconds()) / 1e6

	col.mu.Lock()
	defer col.mu.Unlock()
	col.e.Requests++
	col.e.Items++
	col.latencies = append(col.latencies, totalMs)
	col.e.SSESampled++
	col.sseTTFEMsSum += ttfeMs
	col.sseStreamS += totalMs / 1e3
	col.sseEvents += events
	col.countView(final) // nil (stream broke before the result) counts as failed
}

// doBatch sends one POST /v1/solve/batch with `size` consecutive pool
// entries and records per-item outcomes.
func doBatch(client *http.Client, base string, pool []server.SolveRequest, k, size int, col *collector) {
	items := make([]server.SolveRequest, size)
	for i := range items {
		items[i] = pool[(k*size+i)%len(pool)]
	}
	blob, _ := json.Marshal(server.BatchRequest{Items: items})
	start := time.Now()
	resp, err := client.Post(base+"/v1/solve/batch", "application/json", bytes.NewReader(blob))
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	col.mu.Lock()
	defer col.mu.Unlock()
	col.e.Requests++
	col.e.Items += int64(size)
	col.latencies = append(col.latencies, ms)
	if err != nil {
		col.e.Failed += int64(size)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		col.e.Rejected += int64(size)
		return
	}
	var br server.BatchResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&br) != nil {
		col.e.Failed += int64(size)
		return
	}
	for _, item := range br.Items {
		switch {
		case item.Code == http.StatusTooManyRequests:
			col.e.Rejected++
		case item.Code != http.StatusOK:
			col.e.Failed++
		default:
			if item.Deduped {
				col.e.Deduped++
			}
			col.countView(item.Job)
		}
	}
}

// countView classifies one finished job view (col.mu held).
func (col *collector) countView(view *server.JobView) {
	if view == nil {
		col.e.Failed++
		return
	}
	switch view.State {
	case server.StateDone:
		col.e.Done++
		if view.Cached {
			col.e.Cached++
		}
		if view.Coalesced {
			col.e.Coalesced++
		}
	default:
		col.e.Failed++
	}
}

// percentile reads the q-th percentile (nearest-rank) from sorted ms.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// scrapeCounters reads the counter block of GET /metrics.
func scrapeCounters(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	if snap.Counters == nil {
		snap.Counters = map[string]int64{}
	}
	return snap.Counters, nil
}

// selfHost starts an in-process server with the default configuration
// on a loopback port and returns its base URL plus a shutdown hook.
func selfHost() (string, func(), error) {
	s := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return "", nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "self-hosted qaoad on %s\n", base)
	return base, func() {
		_ = hs.Close()
		s.Close()
	}, nil
}

// checkReport validates a BENCH_server.json document: the schema CI
// asserts after the server-load smoke run.
func checkReport(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Package == "" || rep.Timestamp == "" || rep.GOMAXPROCS < 1 {
		return fmt.Errorf("%s: missing package/timestamp/gomaxprocs header", path)
	}
	if len(rep.Entries) == 0 {
		return fmt.Errorf("%s: no entries", path)
	}
	for i, e := range rep.Entries {
		where := fmt.Sprintf("%s: entry %d (%s)", path, i, e.Name)
		switch {
		case e.Name == "":
			return fmt.Errorf("%s: empty name", where)
		case e.GOMAXPROCS < 1:
			return fmt.Errorf("%s: gomaxprocs %d < 1", where, e.GOMAXPROCS)
		case e.Requests < 1 || e.Items < e.Requests:
			return fmt.Errorf("%s: implausible requests=%d items=%d", where, e.Requests, e.Items)
		case e.DurationS <= 0 || e.OfferedRPS <= 0:
			return fmt.Errorf("%s: non-positive duration/offered rate", where)
		case e.Done > 0 && e.ThroughputRPS <= 0:
			return fmt.Errorf("%s: %d done items but zero throughput", where, e.Done)
		case e.P50Ms < 0 || e.P99Ms < e.P50Ms:
			return fmt.Errorf("%s: latency percentiles out of order (p50 %.3f, p99 %.3f)", where, e.P50Ms, e.P99Ms)
		case e.CacheHitRate < 0 || e.CacheHitRate > 1 || e.WorkspaceReuseRate < 0 || e.WorkspaceReuseRate > 1:
			return fmt.Errorf("%s: rates out of [0,1]", where)
		case e.SSESampled < 0 || e.SSESampled > e.Items:
			return fmt.Errorf("%s: sse_sampled=%d outside [0, items=%d]", where, e.SSESampled, e.Items)
		case e.SSESampled > 0 && (e.SSETimeToFirstEventMs < 0 || e.SSEEventsPerSec < 0):
			return fmt.Errorf("%s: negative sse stream metrics", where)
		case e.SSESampled == 0 && (e.SSETimeToFirstEventMs != 0 || e.SSEEventsPerSec != 0):
			return fmt.Errorf("%s: sse metrics present with zero sampled streams", where)
		}
	}
	return nil
}

// merge folds a previous report at path into r, keyed by
// (name, gomaxprocs) with this run winning; prior timestamps join
// History (newest first, capped). Missing file = first run; corrupt
// file = overwritten.
func (r *Report) merge(path string) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var old Report
	if json.Unmarshal(blob, &old) != nil {
		return
	}
	key := func(e Entry) string { return e.Name + "@" + strconv.Itoa(e.GOMAXPROCS) }
	fresh := make(map[string]bool, len(r.Entries))
	for _, e := range r.Entries {
		fresh[key(e)] = true
	}
	kept := 0
	for _, e := range old.Entries {
		if !fresh[key(e)] {
			r.Entries = append(r.Entries, e)
			kept++
		}
	}
	if old.Timestamp != "" {
		r.History = append(r.History, old.Timestamp)
	}
	r.History = append(r.History, old.History...)
	if len(r.History) > maxHistory {
		r.History = r.History[:maxHistory]
	}
	if kept > 0 {
		fmt.Fprintf(os.Stderr, "merged %d prior entries from %s\n", kept, path)
	}
}

func (r *Report) write(w *os.File) {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fatal(err)
	}
	blob = append(blob, '\n')
	if _, err := w.Write(blob); err != nil {
		fatal(err)
	}
}

func splitInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 1 {
			fatal(fmt.Errorf("bad list value %q (want positive integers)", f))
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qaoaload:", err)
	os.Exit(1)
}
