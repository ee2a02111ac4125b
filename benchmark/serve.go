package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"qaoaml/internal/cluster"
	"qaoaml/internal/problem"
	"qaoaml/internal/server"
	"qaoaml/internal/stats"
	"qaoaml/internal/telemetry"
)

// ---- op lists ----

// solveSpec is one distinct solve: the generated spec (kept for
// verification), its wire request pre-encoded both ways, and the
// fingerprint the server must echo.
type solveSpec struct {
	spec     problem.Spec
	body     []byte // wait=true
	bodySSE  []byte // wait=false, followed over /events
	fp       string
	expected *server.SolveResult // hot mix: the warm-up's cold reply
}

// serveOp is one HTTP request: a single solve (one index into the
// spec pool), an SSE-followed single, or a batch of several.
type serveOp struct {
	items []int
	sse   bool
}

// wireRequest is the SolveRequest a client of the family would send.
func wireRequest(spec problem.Spec, depth int, strategy, optimizer string) (server.SolveRequest, error) {
	req := server.SolveRequest{Problem: spec.Family, Depth: depth, Strategy: strategy, Optimizer: optimizer, Wait: true}
	switch spec.Family {
	case problem.FamilyMaxCut:
		req.Nodes = spec.Graph.N
		for _, e := range spec.Graph.Edges() {
			req.Edges = append(req.Edges, [2]int{e.U, e.V})
		}
	case problem.FamilyQUBO:
		in := spec.Inst
		req.Nodes, req.Linear, req.Offset, req.Sense = in.N, in.Linear, in.Offset, in.Sense.String()
		for _, t := range in.Quad {
			req.Quad = append(req.Quad, server.WireTerm{I: t.I, J: t.J, W: t.W})
		}
	case problem.FamilyMaxKSAT:
		req.Vars, req.ClauseWeights = spec.Formula.Vars, spec.Formula.Weights
		for _, cl := range spec.Formula.Clauses {
			req.Clauses = append(req.Clauses, []int(cl))
		}
	case problem.FamilyPartition:
		req.Numbers = spec.Numbers
	case problem.FamilyPortfolio:
		p := spec.Port
		req.Returns, req.Covariance, req.RiskAversion, req.Budget, req.Penalty = p.Returns, p.Covariance, p.RiskAversion, p.Budget, p.Penalty
	default:
		return req, fmt.Errorf("no wire form for family %q", spec.Family)
	}
	return req, nil
}

func newSolveSpec(spec problem.Spec, depth int, strategy, optimizer string) (solveSpec, error) {
	req, err := wireRequest(spec, depth, strategy, optimizer)
	if err != nil {
		return solveSpec{}, err
	}
	s := solveSpec{spec: spec}
	if s.fp, err = spec.Fingerprint(); err != nil {
		return s, err
	}
	if s.body, err = json.Marshal(req); err != nil {
		return s, err
	}
	req.Wait = false
	s.bodySSE, err = json.Marshal(req)
	return s, err
}

// coldSizes is the register-width mix of the cold workloads, in
// percent: most requests are small, a few are two orders of magnitude
// more expensive (n ≥ 13 runs the streaming kernels). The ladder stops
// at 14, not 16: with {…, 14, 16} the fourteen n=16 solves a run could
// afford were half of its time, their evaluation counts ran from 479 to
// 1051 in total from one seed to the next, and solves_per_s spread 17 %
// across seeds on an idle host. Stopping at 14 pays for 2.5× the specs,
// and no size class is more than two fifths of the time.
var coldSizes = []struct{ n, pct int }{{8, 40}, {10, 25}, {12, 20}, {13, 12}, {14, 3}}

// coldMix generates count unique specs. Attributes are dealt in exact
// proportions and then shuffled, so two seeds differ in their instances
// and order but not in how many ops of each size, family, depth,
// strategy and optimizer they hold: the seed-to-seed spread then comes
// from the instances, not from the multinomial draw on top of them.
func coldMix(seed int64, count int) ([]solveSpec, []serveOp, error) {
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int, 0, count)
	for _, s := range coldSizes {
		for k := 0; k < (count*s.pct+50)/100; k++ {
			sizes = append(sizes, s.n)
		}
	}
	for len(sizes) < count {
		sizes = append(sizes, coldSizes[0].n)
	}
	sizes = sizes[:count]
	// Within a size class, walk family fastest, then depth, strategy and
	// optimizer (1 in 5 slsqp), so every class holds every combination.
	specs := make([]solveSpec, count)
	for i, n := range sizes {
		family := mixFamilies[i%len(mixFamilies)]
		depth := 2 + (i/5)%2
		strategy := server.StrategyNaive
		if (i/10)%2 == 1 {
			strategy = server.StrategyTwoLevel
		}
		optimizer := "lbfgsb"
		if (i/20)%5 == 4 {
			optimizer = "slsqp"
		}
		spec, err := problem.RandomSpec(family, n, rng)
		if err != nil {
			return nil, nil, err
		}
		if specs[i], err = newSolveSpec(spec, depth, strategy, optimizer); err != nil {
			return nil, nil, err
		}
	}
	rng.Shuffle(count, func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	ops := make([]serveOp, count)
	for i := range ops {
		ops[i] = serveOp{items: []int{i}, sse: i%8 == 7}
	}
	return specs, ops, nil
}

// Hot mix shape. The pool is larger than the server's default 256-entry
// LRU, so the Zipf tail keeps evicting and missing; skew and offset
// were tuned once so the hit rate lands near 0.97 — away from 0.95,
// where solve_p95_ms would flip between a cached reply and a solve —
// and are frozen here.
const (
	hotPool  = 288
	hotBatch = 16
	hotZipfS = 1.2
	hotZipfV = 4.0
)

// hotMix generates the n=8 depth-2 pool (five families, two-level
// lbfgsb: the server's defaults) and a schedule of items Zipf draws: 3
// of 4 requests single, 1 of 4 a 16-item batch.
func hotMix(seed int64, items int) ([]solveSpec, []serveOp, error) {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]solveSpec, hotPool)
	for i := range specs {
		spec, err := problem.RandomSpec(mixFamilies[i%len(mixFamilies)], 8, rng)
		if err != nil {
			return nil, nil, err
		}
		if specs[i], err = newSolveSpec(spec, 2, server.StrategyTwoLevel, "lbfgsb"); err != nil {
			return nil, nil, err
		}
	}
	zipf := rand.NewZipf(rng, hotZipfS, hotZipfV, hotPool-1)
	var ops []serveOp
	for left, k := items, 0; left > 0; k++ {
		n := 1
		if k%4 == 3 {
			n = min(hotBatch, left)
		}
		op := serveOp{items: make([]int, n)}
		for j := range op.items {
			op.items[j] = int(zipf.Uint64())
		}
		ops = append(ops, op)
		left -= n
	}
	return specs, ops, nil
}

// ---- decorators ----

// layerRec is where the journal and dispatcher decorators put their
// timings. It exists only on traced passes and ladder probes; on the
// untraced pass the decorators are a plain call-through.
type layerRec struct {
	tr      *tracer
	opOf    map[string]int // fingerprint → op id (cold mixes: one op per spec)
	reqSpan []atomic.Int32 // op id → its open http.request span

	mu         sync.Mutex
	acceptMs   []float64
	completeMs []float64
	dispatchMs []float64
}

// span opens a decorator span under the http.request span of the op
// that sent fp; -1 (no span) for a fingerprint no op owns.
func (r *layerRec) span(name, fp string) int {
	op, ok := r.opOf[fp]
	if !ok {
		return -1
	}
	return r.tr.begin(name, int(r.reqSpan[op].Load()), op)
}

func (r *layerRec) add(dst *[]float64, d time.Duration) {
	r.mu.Lock()
	*dst = append(*dst, ms(d))
	r.mu.Unlock()
}

// timedJournal wraps the real WAL behind server.Journal. Accepted runs
// under the server's submission lock, so its time (an fsync) is time
// every other submission waits.
type timedJournal struct {
	inner server.Journal
	rec   *layerRec
}

func (j *timedJournal) Accepted(key, fp string, req server.SolveRequest) error {
	if j.rec == nil {
		return j.inner.Accepted(key, fp, req)
	}
	id := j.rec.span("journal.accepted", fp)
	t0 := time.Now()
	err := j.inner.Accepted(key, fp, req)
	j.rec.add(&j.rec.acceptMs, time.Since(t0))
	j.rec.tr.end(id)
	return err
}

func (j *timedJournal) Completed(key string, res *server.SolveResult) error {
	if j.rec == nil {
		return j.inner.Completed(key, res)
	}
	t0 := time.Now()
	err := j.inner.Completed(key, res)
	j.rec.add(&j.rec.completeMs, time.Since(t0))
	return err
}

type timedDispatcher struct {
	inner server.Dispatcher
	rec   *layerRec
}

func (d *timedDispatcher) Dispatch(ctx context.Context, req server.SolveRequest, fp string, cost int64, emit func(telemetry.IterEvent)) (*server.SolveResult, error) {
	if d.rec == nil {
		return d.inner.Dispatch(ctx, req, fp, cost, emit)
	}
	id := d.rec.span("dispatcher.dispatch", fp)
	t0 := time.Now()
	res, err := d.inner.Dispatch(ctx, req, fp, cost, emit)
	d.rec.add(&d.rec.dispatchMs, time.Since(t0))
	d.rec.tr.end(id)
	return res, err
}

// ---- server / fleet boot ----

// stack is the system under test: one server (-role=single shape), or
// a coordinator with a WAL and a dispatcher in front of two workers,
// all in this process on loopback listeners.
type stack struct {
	base    string
	front   *server.Server   // the server clients talk to
	workers []*server.Server // fleet only
	wal     *cluster.WAL
	disp    *cluster.Dispatcher
	tmp     string
	rec     *layerRec

	https []*http.Server
	wg    sync.WaitGroup
}

func (st *stack) listen(s *server.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: s.Handler()}
	st.https = append(st.https, hs)
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		_ = hs.Serve(ln) // returns once close() shuts the listener
	}()
	return "http://" + ln.Addr().String(), nil
}

func boot(e *env, fleet bool, rec *layerRec) (st *stack, err error) {
	reg, err := server.NewRegistry("")
	if err != nil {
		return nil, err
	}
	reg.Register("default", e.pred)
	st = &stack{rec: rec}
	defer func() {
		if err != nil {
			st.close()
			st.removeTemp()
		}
	}()
	if !fleet {
		st.front = server.New(server.Config{Registry: reg})
		st.base, err = st.listen(st.front)
		return st, err
	}
	var peers []string
	for i := 0; i < 2; i++ {
		w := server.New(server.Config{Registry: reg})
		st.workers = append(st.workers, w)
		addr, err := st.listen(w)
		if err != nil {
			return st, err
		}
		peers = append(peers, addr)
	}
	if err = os.MkdirAll(e.cfg.outDir, 0o755); err != nil {
		return st, err
	}
	if st.tmp, err = os.MkdirTemp(e.cfg.outDir, "wal-"); err != nil {
		return st, err
	}
	if st.wal, _, err = cluster.OpenWAL(filepath.Join(st.tmp, "jobs.wal")); err != nil {
		return st, err
	}
	// One Memory behind the coordinator and its dispatcher, as qaoad
	// wires it, so cluster.dispatch.* counters sit beside server.*.
	mem := telemetry.NewMemory()
	if st.disp, err = cluster.NewDispatcher(cluster.DispatcherConfig{Workers: peers, Recorder: mem}); err != nil {
		return st, err
	}
	st.front = server.New(server.Config{
		Registry: reg, Recorder: mem, CacheSize: -1,
		Journal:    &timedJournal{inner: st.wal, rec: rec},
		Dispatcher: &timedDispatcher{inner: st.disp, rec: rec},
	})
	st.base, err = st.listen(st.front)
	return st, err
}

// close stops every listener, server, the dispatcher and the WAL and
// waits for their goroutines; the WAL file stays for the replay probe
// until removeTemp. Safe to call twice.
func (st *stack) close() {
	for _, hs := range st.https {
		_ = hs.Close()
	}
	st.wg.Wait()
	st.https = nil
	if st.front != nil {
		st.front.Close()
		st.front = nil
	}
	for _, w := range st.workers {
		w.Close()
	}
	st.workers = nil
	if st.disp != nil {
		st.disp.Close()
		st.disp = nil
	}
	if st.wal != nil {
		_ = st.wal.Close() // appends already fsync'd; nothing to recover from a failed close
		st.wal = nil
	}
}

func (st *stack) removeTemp() {
	if st.tmp != "" {
		_ = os.RemoveAll(st.tmp)
		st.tmp = ""
	}
}

// ---- clients ----

// opOut is what one HTTP request produced.
type opOut struct {
	done      bool // the op was started (false: dropped by the overrun guard)
	rtt       time.Duration
	failed    int // items that failed transport, status or job state, or differed from the first cold reply
	reqBytes  int
	respBytes int
	cached    bool // single answered from the cache or coalesced
	queue     time.Duration
	run       time.Duration
	life      time.Duration // Finished − Enqueued
	ttfe      time.Duration
	events    int
	result    *server.SolveResult // cold ops: kept for verification after the timed section
}

type client struct {
	http  *http.Client
	base  string
	specs []solveSpec
	buf   bytes.Buffer
}

func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// finish folds a terminal JobView into out. With an expected reply on
// file (hot mix) the result is compared at once and dropped — keeping
// hundreds of thousands of decoded replies alive for a later pass would
// load the collector inside the timed section; cold ops keep theirs.
func (c *client) finish(out *opOut, item int, view *server.JobView) {
	if view.State != server.StateDone || view.Result == nil {
		out.failed++
		return
	}
	if exp := c.specs[item].expected; exp != nil {
		if !reflect.DeepEqual(view.Result, exp) {
			out.failed++
		}
		return
	}
	out.result = view.Result
}

func (c *client) single(item int) opOut {
	s := c.specs[item]
	out := opOut{done: true, reqBytes: len(s.body)}
	t0 := time.Now()
	code, data, err := c.post("/v1/solve", s.body)
	var view server.JobView
	if err == nil {
		err = json.Unmarshal(data, &view)
	}
	out.rtt = time.Since(t0)
	out.respBytes = len(data)
	if err != nil || code != http.StatusOK {
		out.failed = 1
		return out
	}
	c.finish(&out, item, &view)
	out.cached = view.Cached || view.Coalesced
	if view.Started != nil && view.Finished != nil {
		out.queue = view.Started.Sub(view.Enqueued)
		out.run = view.Finished.Sub(*view.Started)
		out.life = view.Finished.Sub(view.Enqueued)
	}
	return out
}

// followed submits with wait=false and follows the job's event stream
// to its terminal event, like the coordinator's dispatcher does.
func (c *client) followed(item int) opOut {
	s := c.specs[item]
	out := opOut{done: true, reqBytes: len(s.bodySSE), failed: 1}
	t0 := time.Now()
	defer func() { out.rtt = time.Since(t0) }()
	code, data, err := c.post("/v1/solve", s.bodySSE)
	var view server.JobView
	if err != nil || (code != http.StatusAccepted && code != http.StatusOK) || json.Unmarshal(data, &view) != nil {
		return out
	}
	stream, err := cluster.OpenEvents(context.Background(), c.http, c.base, view.ID)
	if err != nil {
		return out
	}
	defer stream.Close()
	for {
		ev, err := stream.Next()
		if err != nil {
			return out
		}
		if out.events == 0 {
			out.ttfe = time.Since(t0)
		}
		out.events++
		if ev.Name != server.EventResult {
			continue
		}
		out.respBytes = len(ev.Data)
		var final server.JobView
		if json.Unmarshal(ev.Data, &final) != nil {
			return out
		}
		out.failed = 0
		c.finish(&out, item, &final)
		if final.Started != nil && final.Finished != nil {
			out.queue = final.Started.Sub(final.Enqueued)
			out.run = final.Finished.Sub(*final.Started)
		}
		return out
	}
}

func (c *client) batch(items []int) opOut {
	c.buf.Reset()
	c.buf.WriteString(`{"items":[`)
	for k, it := range items {
		if k > 0 {
			c.buf.WriteByte(',')
		}
		c.buf.Write(c.specs[it].body)
	}
	c.buf.WriteString(`]}`)
	out := opOut{done: true, reqBytes: c.buf.Len()}
	t0 := time.Now()
	code, data, err := c.post("/v1/solve/batch", c.buf.Bytes())
	var resp server.BatchResponse
	if err == nil {
		err = json.Unmarshal(data, &resp)
	}
	out.rtt = time.Since(t0)
	out.respBytes = len(data)
	if err != nil || code != http.StatusOK || len(resp.Items) != len(items) {
		out.failed = len(items)
		return out
	}
	for k, it := range resp.Items {
		if it.Code != http.StatusOK || it.Job == nil {
			out.failed++
			continue
		}
		c.finish(&out, items[k], it.Job)
	}
	return out
}

// drive runs ops closed-loop: clients goroutines, one connection pool
// each, take the next op off a shared counter and block for its reply.
func drive(st *stack, specs []solveSpec, ops []serveOp, clients int, tr *tracer, stop time.Time) []opOut {
	outs := make([]opOut, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := &http.Transport{MaxIdleConnsPerHost: 2}
			defer tp.CloseIdleConnections()
			c := &client{http: &http.Client{Transport: tp}, base: st.base, specs: specs}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) || time.Now().After(stop) {
					return
				}
				op := ops[i]
				clock.tick()
				root := tr.begin("op", -1, i)
				req := tr.begin("http.request", root, i)
				if st.rec != nil && len(op.items) == 1 {
					st.rec.reqSpan[op.items[0]].Store(int32(req))
				}
				switch {
				case len(op.items) > 1:
					outs[i] = c.batch(op.items)
				case op.sse:
					outs[i] = c.followed(op.items[0])
				default:
					outs[i] = c.single(op.items[0])
				}
				tr.end(req)
				tr.end(root)
			}
		}()
	}
	wg.Wait()
	return outs
}

// warm solves every pool spec once, in order, and keeps the cold reply
// as the expected result of every later request for it.
func warm(st *stack, specs []solveSpec) error {
	c := &client{http: &http.Client{}, base: st.base, specs: specs}
	defer c.http.CloseIdleConnections()
	for i := range specs {
		out := c.single(i)
		if out.failed > 0 || out.result == nil {
			return fmt.Errorf("warm-up solve %d failed", i)
		}
		specs[i].expected = out.result
	}
	return nil
}

// ---- the three serving workloads ----

func buildServe(e *env, workload string) (*instance, error) {
	var rec *layerRec
	if e.cfg.tracedPass {
		rec = &layerRec{}
	}
	return buildServeScaled(e, workload, e.cfg.seconds, rec)
}

// buildServeScaled is buildServe at an explicit scale and with an
// optional layer recorder: the ladder runs miniature mixes through the
// very same code.
func buildServeScaled(e *env, workload string, seconds float64, rec *layerRec) (*instance, error) {
	var (
		specs []solveSpec
		ops   []serveOp
		err   error
	)
	if workload == wHot {
		specs, ops, err = hotMix(e.cfg.seed, opCount(hotItemsPerSecond, seconds, 64))
	} else {
		specs, ops, err = coldMix(e.cfg.seed, opCount(coldSpecsPerSecond, seconds, 10))
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.opOf = make(map[string]int, len(specs))
		for i, s := range specs {
			rec.opOf[s.fp] = i
		}
		rec.reqSpan = make([]atomic.Int32, len(specs))
	}
	st, err := boot(e, workload == wFleet, rec)
	if err != nil {
		return nil, err
	}
	if workload == wHot {
		if err := warm(st, specs); err != nil {
			st.close()
			return nil, err
		}
	}
	items := 0
	for _, op := range ops {
		items += len(op.items)
	}
	clients := e.cfg.nproc
	return &instance{
		clients: clients,
		ops:     map[string]int{"requests": len(ops), "items": items, "specs": len(specs)},
		close:   func() { st.close(); st.removeTemp() },
		run: func(tr *tracer) (*pass, error) {
			if rec != nil {
				rec.tr = tr
			}
			return runServe(e, st, specs, ops, clients, seconds, tr)
		},
	}, nil
}

func runServe(e *env, st *stack, specs []solveSpec, ops []serveOp, clients int, seconds float64, tr *tracer) (*pass, error) {
	p := &pass{}
	before := counters(st)
	var outs []opOut
	stop := overrunDeadline(seconds)
	p.timed(func() { outs = drive(st, specs, ops, clients, tr, stop) })
	after := counters(st)

	// Verification, after the timed section: each cold result against
	// the spec that was sent; the hot mix's replies were compared with
	// the first cold reply as they arrived, and that reply is verified
	// here. Sums run in op / pool order so they repeat bit for bit
	// whatever order the clients finished in.
	h := sha256.New()
	draws := make([]int, len(specs))
	for i, out := range outs {
		if !out.done {
			p.truncated = true
			continue
		}
		op := ops[i]
		p.attempted += len(op.items)
		p.failed += out.failed
		if len(op.items) == 1 {
			p.latMs = append(p.latMs, ms(out.rtt))
		}
		if specs[op.items[0]].expected != nil {
			for _, it := range op.items {
				draws[it]++
			}
			continue
		}
		if out.failed > 0 {
			continue
		}
		s := specs[op.items[0]]
		if !verifyResult(s.spec, s.fp, out.result) {
			p.failed++
			continue
		}
		p.nfev = append(p.nfev, out.result.NFev)
		p.arSum += out.result.AR
		p.arN++
		blob, _ := json.Marshal(out.result) // a decoded SolveResult always re-encodes
		fmt.Fprintf(h, "%d %s\n", i, blob)
	}
	for i, n := range draws {
		if n == 0 {
			continue
		}
		s := specs[i]
		if !verifyResult(s.spec, s.fp, s.expected) {
			p.failed += n
			continue
		}
		p.nfev = append(p.nfev, s.expected.NFev)
		p.arSum += float64(n) * s.expected.AR
		p.arN += n
		blob, _ := json.Marshal(s.expected)
		fmt.Fprintf(h, "%d %s\n", i, blob)
	}
	if p.failed > p.attempted {
		p.failed = p.attempted
	}
	p.digest = hex.EncodeToString(h.Sum(nil))

	st.close()
	p.serve = serveLayerMetrics(st, ops, outs, before, after, p.attempted)
	st.removeTemp()
	return p, nil
}

// ---- layer metrics of a serving pass ----

// counterNames are the Server.Metrics() counters whose deltas over the
// timed section become shares and rates.
var counterNames = []string{
	"server.cache.hits", "server.cache.misses", "server.jobs.coalesced",
	"server.batch.items", "server.batch.deduped",
	"server.admission.rejected", "server.http.backpressure",
	"server.arena.gets", "server.arena.hits", "server.jobs.submitted",
	"server.journal.accepted", "cluster.dispatch.remote_cache_hits",
}

// counters reads the front server's counters, with the workers' arena
// traffic folded in (a coordinator solves nothing itself) and each
// worker's accepted-job count kept apart for ring_balance.
func counters(st *stack) map[string]int64 {
	m := make(map[string]int64, len(counterNames)+len(st.workers))
	for _, n := range counterNames {
		m[n] = st.front.Metrics().CounterValue(n)
	}
	for i, w := range st.workers {
		m["server.arena.gets"] += w.Metrics().CounterValue("server.arena.gets")
		m["server.arena.hits"] += w.Metrics().CounterValue("server.arena.hits")
		m[fmt.Sprintf("worker%d.jobs", i)] = w.Metrics().CounterValue("server.jobs.submitted")
	}
	return m
}

// serveLayerMetrics computes every server.* / cluster.* metric this
// pass can define; a mix without cached replies has no hot_req_us, a
// single server no cluster.*, and so on. Call after st.close(): the
// WAL replay probe reopens the log the run produced.
func serveLayerMetrics(st *stack, ops []serveOp, outs []opOut, before, after map[string]int64, items int) map[string]float64 {
	m := map[string]float64{}
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	ratio := func(name string, num, den float64) {
		if den > 0 {
			m[name] = num / den
		}
	}
	p := func(name string, v []float64, q float64) {
		if len(v) > 0 {
			m[name] = stats.Percentile(v, q)
		}
	}
	var overhead, queue, run, hot, batchItem, reqB, respB, ttfe, events []float64
	for i, out := range outs {
		if !out.done || out.failed > 0 {
			continue
		}
		switch op := ops[i]; {
		case len(op.items) > 1:
			batchItem = append(batchItem, us(out.rtt)/float64(len(op.items)))
			continue
		case op.sse:
			ttfe = append(ttfe, ms(out.ttfe))
			events = append(events, float64(out.events))
		case out.cached:
			hot = append(hot, us(out.rtt))
		default:
			overhead = append(overhead, ms(out.rtt-out.life))
		}
		reqB = append(reqB, float64(out.reqBytes))
		respB = append(respB, float64(out.respBytes))
		if !out.cached {
			queue = append(queue, ms(out.queue))
			run = append(run, ms(out.run))
		}
	}
	p("server.http_overhead_ms_p50", overhead, 50)
	p("server.queue_wait_ms_p50", queue, 50)
	p("server.queue_wait_ms_p95", queue, 95)
	p("server.run_ms_p50", run, 50)
	p("server.hot_req_us_p50", hot, 50)
	p("server.batch_item_us", batchItem, 50)
	p("server.req_bytes_p50", reqB, 50)
	p("server.resp_bytes_p50", respB, 50)
	p("server.sse_ttfe_ms_p50", ttfe, 50)
	if len(events) > 0 {
		m["server.sse_events_per_job"] = stats.Mean(events)
	}
	lookups := delta("server.cache.hits") + delta("server.cache.misses")
	ratio("server.cache_hit_rate", delta("server.cache.hits"), lookups)
	ratio("server.coalesced_share", delta("server.jobs.coalesced"), lookups)
	ratio("server.batch_deduped_share", delta("server.batch.deduped"), delta("server.batch.items"))
	ratio("server.rejected_share", delta("server.admission.rejected")+delta("server.http.backpressure"), float64(items))
	ratio("server.arena_reuse_rate", delta("server.arena.hits"), delta("server.arena.gets"))

	if st.tmp == "" {
		return m
	}
	m["cluster.remote_cache_hits"] = delta("cluster.dispatch.remote_cache_hits")
	// max ÷ mean rather than max ÷ min: a small mix may leave one
	// worker idle, and the metric should still have a value (1 =
	// balanced, 2 = everything on one worker).
	w0, w1 := delta("worker0.jobs"), delta("worker1.jobs")
	ratio("cluster.ring_balance", 2*max(w0, w1), w0+w1)
	path := filepath.Join(st.tmp, "jobs.wal")
	if fi, err := os.Stat(path); err == nil {
		ratio("cluster.wal_bytes_per_job", float64(fi.Size()), delta("server.journal.accepted"))
	}
	t0 := time.Now()
	if wal, rec, err := cluster.OpenWAL(path); err == nil {
		m["cluster.wal_replay_ms"] = ms(time.Since(t0))
		m["cluster.wal_replay_jobs"] = float64(len(rec.Completed) + len(rec.Incomplete))
		_ = wal.Close()
	}
	if r := st.rec; r != nil {
		p("cluster.wal_accept_ms_p50", r.acceptMs, 50)
		p("cluster.wal_accept_ms_p95", r.acceptMs, 95)
		p("cluster.wal_complete_ms_p50", r.completeMs, 50)
		p("cluster.dispatch_ms_p50", r.dispatchMs, 50)
	}
	return m
}
