package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/optimize"
	"qaoaml/internal/quantum"
	"qaoaml/internal/stats"
)

// Reference op rates: each workload's op count is rate × -seconds, so
// -seconds is the one constant that scales every count. The rates are
// sized so a timed section takes about -seconds on the reference host
// (2 cores, 2.1 GHz Xeon, Go 1.24); on another host the op list is the
// same and only the wall time differs, which is what keeps counts
// (nfev_per_solve, ar_mean, fc_reduction_pct) exactly repeatable.
const (
	paperGraphsPerSecond = 4.5 // × 4 depths × 4 optimizers × 2 strategies = 144 solves/s
	coldSpecsPerSecond   = 80.0
	hotItemsPerSecond    = 16000.0
	whaleSolvesPerSecond = 0.4
)

// The overrun guard bounds a run on a host much slower than the
// reference: ops not started within overrunFactor × -seconds (at least
// overrunFloor, so the smallest op lists always finish) are dropped and
// the result is marked truncated — its exact-repeat metrics then cover
// fewer ops, and -compare does not hold them to exactness.
const (
	overrunFactor = 2
	overrunFloor  = 20 * time.Second
)

type runConfig struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	tracedPass  bool // set-up for the traced pass: serving workloads get their decorators' recorder
	nproc       int
	bigN        int // whale and ladder register width: 20 (smoke test -short: 14)
	setupReps   int // set-up repetitions; setup_s is their median
	trainGraphs int // datagen graphs for the predictor (64)
	outDir      string
	ladder      *ladderCache
}

func opCount(rate, seconds float64, floor int) int {
	return max(floor, int(math.Round(rate*seconds)))
}

// env is what the shared part of set-up produces: the trained
// two-level predictor every workload solves with.
type env struct {
	cfg         runConfig
	pred        *core.Predictor
	datagenS    float64
	datagenNFev int
	trainMs     float64
	trainRows   int
}

// prepare runs the paper's recipe at serving scale: cfg.trainGraphs
// 8-node graphs × depths 1–5 × 4 multistarts, then trains the default
// GPR predictor on all of them.
func prepare(cfg runConfig) (*env, error) {
	e := &env{cfg: cfg}
	t0 := time.Now()
	data, err := core.Generate(core.DataGenConfig{
		NumGraphs: cfg.trainGraphs, Nodes: 8, EdgeProb: 0.5,
		MaxDepth: 5, Starts: 4, Tol: 1e-6, Seed: cfg.seed, Workers: cfg.nproc,
		Recorder: tickRecorder{}, // host-clock samples from inside the sweep
	})
	if err != nil {
		return nil, fmt.Errorf("datagen: %w", err)
	}
	e.datagenS = time.Since(t0).Seconds()
	for _, recs := range data.Records {
		for _, r := range recs {
			e.datagenNFev += r.NFev
		}
	}
	ids := make([]int, cfg.trainGraphs)
	for i := range ids {
		ids[i] = i
	}
	t0 = time.Now()
	e.pred = core.NewPredictor(nil)
	if err := e.pred.Train(data, ids); err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	e.trainMs = ms(time.Since(t0))
	e.trainRows = len(ids) * 4 // one row per graph for each target depth 2–5
	return e, nil
}

// newOptimizer is the server's optimizerFor — the paper's four local
// optimizers at tolerance 1e-6 — except that COBYLA gets SciPy's default
// budget of 1000 evaluations, the paper's setting. The repository
// default of 1000·dim lets about one COBYLA solve in 80 run to 10 000
// evaluations, and those few solves alone moved paper_n8's
// nfev_per_solve and throughput by ±12 % from one seed to the next.
func newOptimizer(name string) optimize.Optimizer {
	switch name {
	case "lbfgsb":
		return &optimize.LBFGSB{Tol: 1e-6}
	case "neldermead":
		return &optimize.NelderMead{Tol: 1e-6}
	case "slsqp":
		return &optimize.SLSQP{Tol: 1e-6}
	case "cobyla":
		return &optimize.COBYLA{Tol: 1e-6, MaxFev: 1000}
	}
	panic("benchmark: unknown optimizer " + name)
}

// instance is one set-up workload: run executes the timed section and
// the verification after it; close releases servers and temp files.
type instance struct {
	run     func(tr *tracer) (*pass, error)
	close   func()
	ops     map[string]int // op counts, for the output
	clients int
}

// pass is what one execution of a workload's op list produced.
type pass struct {
	wall      time.Duration
	refS      float64   // wall in reference-speed seconds (hostclock.go)
	calN      int       // host-clock samples behind refS
	latMs     []float64 // per single-solve request
	attempted int       // solve items
	failed    int       // transport, status, job-state and verification failures
	truncated bool
	nfev      []int // per distinct cold solve
	arSum     float64
	arN       int
	fcNaive   int // paper_n8: ΣFC over paired cells
	fcTwo     int
	digest    string
	proc      procDelta
	serve     map[string]float64 // server.* / cluster.* taken on this pass (serving workloads)
}

// procDelta is what the process spent inside one timed section.
type procDelta struct {
	cpuS     float64
	mallocs  uint64
	gcPauseS float64
	ampBytes int64
}

// timed runs fn between two readings of the process counters and of
// the host clock, and stores its length both ways in p. The readings
// (ReadMemStats stops the world) stay outside the wall time.
func (p *pass) timed(fn func()) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0, amp0 := cpuSeconds(), quantum.AmpBytesAllocated()
	clock.sample()
	t0 := time.Now()
	fn()
	t1 := time.Now()
	clock.sample()
	cpu1, amp1 := cpuSeconds(), quantum.AmpBytesAllocated()
	runtime.ReadMemStats(&m1)
	p.wall = t1.Sub(t0)
	p.refS, p.calN = clock.refSeconds(t0, t1)
	p.proc = procDelta{
		cpuS:     cpu1 - cpu0,
		mallocs:  m1.Mallocs - m0.Mallocs,
		gcPauseS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
		ampBytes: amp1 - amp0,
	}
}

// overrunDeadline is when an op loop starting now stops issuing ops.
func overrunDeadline(seconds float64) time.Time {
	return time.Now().Add(max(overrunFloor, time.Duration(overrunFactor*seconds*float64(time.Second))))
}

// builders maps each workload to its set-up.
var builders = map[string]func(*env) (*instance, error){
	wPaper: buildPaper,
	wWhale: buildWhale,
	wCold:  func(e *env) (*instance, error) { return buildServe(e, wCold) },
	wHot:   func(e *env) (*instance, error) { return buildServe(e, wHot) },
	wFleet: func(e *env) (*instance, error) { return buildServe(e, wFleet) },
}

// setUp is one full set-up: shared predictor plus the workload's own
// instances, servers and warm-up. Its length, in wall and in
// reference-speed seconds, is one set-up sample.
func setUp(cfg runConfig) (e *env, inst *instance, rawS, refS float64, err error) {
	clock.sample()
	t0 := time.Now()
	if e, err = prepare(cfg); err != nil {
		return nil, nil, 0, 0, err
	}
	if inst, err = builders[cfg.workload](e); err != nil {
		return nil, nil, 0, 0, err
	}
	t1 := time.Now()
	clock.sample()
	refS, _ = clock.refSeconds(t0, t1)
	return e, inst, t1.Sub(t0).Seconds(), refS, nil
}

// result is one workload's output: what the result file stores and
// -compare / -check read back.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Loop      string            `json:"loop"` // every workload is closed-loop
	Clients   int               `json:"clients"`
	Ops       map[string]int    `json:"ops"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Truncated bool              `json:"truncated"`
	Digest    string            `json:"result_digest"`
	SetupS    []float64         `json:"setup_samples_s"`     // reference-speed seconds
	SetupRawS []float64         `json:"setup_samples_raw_s"` // wall
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
	SelfTimes []selfTime        `json:"trace_self_times,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // sample count behind a percentile
}

// runWorkload sets the workload up cfg.setupReps times (setup_s is the
// median), runs its op list once untraced for the end-to-end metrics
// and, with cfg.trace, once more traced plus the layer ladder.
func runWorkload(cfg runConfig) (*result, error) {
	if _, ok := builders[cfg.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Loop: "closed",
		Metrics: map[string]metric{},
	}
	var inst *instance
	for i := 0; i < cfg.setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		_, next, raw, ref, err := setUp(cfg)
		if err != nil {
			return nil, err
		}
		inst = next
		res.SetupS, res.SetupRawS = append(res.SetupS, ref), append(res.SetupRawS, raw)
	}
	res.Ops, res.Clients = inst.ops, inst.clients

	p, err := inst.run(nil)
	inst.close()
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Truncated, res.Digest = p.attempted, p.failed, p.truncated, p.digest
	endToEndMetrics(res, p)

	if cfg.trace {
		if err := tracedRun(cfg, res, p); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// endToEndMetrics derives the end-to-end metrics from the untraced pass.
func endToEndMetrics(res *result, p *pass) {
	set := func(name string, v float64, n int) {
		d, _ := findMetric(allEndToEnd(), name)
		res.Metrics[name] = metric{Value: v, Unit: d.unit, N: n}
	}
	set("setup_s", stats.Median(res.SetupS), len(res.SetupS))
	set("setup_raw_s", stats.Median(res.SetupRawS), len(res.SetupRawS))
	done := p.attempted - p.failed
	set("solves_per_s", float64(done)/p.refS, done)
	set("solves_per_s_raw", float64(done)/p.wall.Seconds(), done)
	set("host_speed", p.refS/p.wall.Seconds(), p.calN)
	set("solve_p50_ms", stats.Median(p.latMs), len(p.latMs))
	set("solve_p95_ms", stats.Percentile(p.latMs, 95), len(p.latMs))
	if q, ok := tailPercentile(len(p.latMs)); !ok || q < 0.95 {
		res.Notes = append(res.Notes, fmt.Sprintf("%s%d samples, fewer than ten beyond p95; value is interpolated", p95Note, len(p.latMs)))
	}
	sum := 0
	for _, n := range p.nfev {
		sum += n
	}
	set("nfev_per_solve", float64(sum)/float64(len(p.nfev)), len(p.nfev))
	set("ar_mean", p.arSum/float64(p.arN), p.arN)
	set("fail_share", float64(p.failed)/float64(p.attempted), p.attempted)
	if p.fcNaive > 0 {
		set("fc_reduction_pct", 100*(1-float64(p.fcTwo)/float64(p.fcNaive)), p.fcNaive)
	}
	if p.truncated {
		res.Notes = append(res.Notes, "truncated: the overrun guard dropped ops; exact-repeat metrics cover fewer ops")
	}
}
