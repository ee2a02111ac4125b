package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/quantum"
	"qaoaml/internal/stats"
	"qaoaml/internal/telemetry"
)

// The ladder is the per-layer half of a traced run: one fixed set of
// probes, the same on every workload, each a direct call into a
// module's public API timed from here. Its instances come from the run
// seed. Size suffixes name the class a probe stands for (.n8 paper and
// hot mixes, .n14 the streaming sizes of the cold mixes, .n20 the
// whale); the smoke test's -short mode runs the .n20 probes at n=14
// and says so in the notes.

type ladder struct {
	e     *env
	rng   *rand.Rand
	big   int  // register width behind the .n20 names
	quick bool // smoke-test scale
	out   map[string]float64
	note  func(string)

	g8, g14, gBig *graph.Graph
}

func runLadder(e *env, note func(string)) (map[string]float64, error) {
	l := &ladder{e: e, rng: rand.New(rand.NewSource(e.cfg.seed)), big: e.cfg.bigN, out: map[string]float64{}, note: note}
	l.quick = e.cfg.seconds < 1
	l.g8 = graph.ErdosRenyiConnected(8, 0.5, l.rng)
	l.g14 = graph.ErdosRenyiConnected(14, 0.5, l.rng)
	l.gBig = graph.RandomRegular(l.big, 3, l.rng)
	if l.big != 20 {
		note(fmt.Sprintf("ladder: .n20 probes ran at n=%d", l.big))
	}
	l.quantumRung()
	for _, rung := range []func() error{l.qaoaRung, l.optimizeRung, l.coreRung, l.problemRung, l.serveRung} {
		if err := rung(); err != nil {
			return nil, err
		}
	}
	l.telemetryRung()
	l.out["ml.train_ms"] = e.trainMs
	l.out["ml.train_rows"] = float64(e.trainRows)
	l.out["core.datagen_s"] = e.datagenS
	l.out["core.datagen_nfev"] = float64(e.datagenNFev)
	return l.out, nil
}

// reps scales a probe's repetition count: the smoke test runs at a
// small fraction of a second and wants every probe exercised, not
// steady numbers.
func (l *ladder) reps(n int) int {
	if l.quick {
		return max(2, n/10)
	}
	return n
}

// ---- quantum ----

// triadGBps is a STREAM-triad probe, a[i] = b[i] + s·c[i], split over
// nproc goroutines. Each array is 4 × LLC, capped at 64 MiB: this
// host's hypervisor reports a 260 MiB L3, and three 1 GiB arrays would
// cost more than the rest of the ladder together. Both sizes are noted.
func (l *ladder) triadGBps() float64 {
	bytes := min(max(4*llcBytes(), 32<<20), 64<<20)
	if l.quick {
		bytes = 8 << 20
	}
	n := int(bytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	workers := l.e.cfg.nproc
	d := timeReps(l.reps(5), func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				as, bs, cs := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range as {
					as[i] = bs[i] + 3*cs[i]
				}
			}()
		}
		wg.Wait()
	})
	l.note(fmt.Sprintf("triad: 3 arrays × %d MiB, LLC %d MiB, %d goroutines", bytes>>20, llcBytes()>>20, workers))
	return 24 * float64(n) / medianDur(d)
}

func (l *ladder) quantumRung() {
	triad := l.triadGBps()
	l.out["quantum.triad_gbps"] = triad

	s8 := quantum.NewState(8)
	r8 := quantum.NewLayerRunner(s8)
	l.out["quantum.sweep_ns_per_amp.n8"] = perCallNs(l.reps(20), 2000, func() { r8.Layer(0.4, true, nil) }) / 256

	// fill + RX with a no-op phase: the mixer sweep alone.
	dim := float64(int(1) << uint(l.big))
	sBig := quantum.NewState(l.big)
	rBig := quantum.NewLayerRunner(sBig)
	sweep := func() float64 { return medianDur(timeReps(l.reps(9), func() { rBig.Layer(0.4, true, nil) })) }
	rBig.Layer(0.4, true, nil) // first call starts the worker pool
	flat := sweep()
	l.out["quantum.sweep_ns_per_amp.n20"] = flat / dim
	computed := 32 * dim / flat // 16 B read + 16 B written per amplitude, once
	l.out["quantum.sweep_computed_gbps"] = computed
	l.out["quantum.roofline_share"] = computed / triad

	switch nproc := l.e.cfg.nproc; {
	case nproc < 2:
		l.note(parallelSpeedup + " omitted: nproc < 2")
	case runtime.GOMAXPROCS(0) > runtime.NumCPU():
		l.note(fmt.Sprintf("%s omitted: GOMAXPROCS %d > NumCPU %d would time oversubscription, not the engine", parallelSpeedup, runtime.GOMAXPROCS(0), runtime.NumCPU()))
	default:
		runtime.GOMAXPROCS(1)
		serial := sweep()
		runtime.GOMAXPROCS(nproc)
		l.out[parallelSpeedup] = serial / flat
	}

	// Two shard bits at n=20; fewer where (the -short n=14 stand-in) a
	// shard must not be smaller than one fixed-geometry chunk.
	bits := 2
	for bits > 0 && 1<<uint(l.big-bits) < quantum.ChunkLen(1<<uint(l.big)) {
		bits--
	}
	ss := quantum.NewShardedState(l.big, bits)
	ss.Layer(0.4, true, nil)
	sharded := medianDur(timeReps(l.reps(9), func() { ss.Layer(0.4, true, nil) }))
	ss.Close()
	l.out["quantum.sharded_vs_flat_ratio"] = sharded / flat

	diag := make([]float64, int(dim))
	for i := range diag {
		diag[i] = float64(i & 7)
	}
	var sink float64
	red := medianDur(timeReps(l.reps(9), func() { sink += sBig.ExpectationDiagonal(diag) }))
	_ = sink
	l.out["quantum.reduce_ns_per_amp"] = red / dim
}

// ---- qaoa ----

func testPoint(p int) []float64 {
	x := make([]float64, 2*p)
	for i := 0; i < p; i++ {
		x[i], x[p+i] = 0.4+0.1*float64(i), 0.3+0.05*float64(i)
	}
	return x
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (l *ladder) qaoaRung() error {
	type class struct {
		name string
		g    *graph.Graph
		reps int
	}
	classes := []class{{"n8", l.g8, 400}, {"n14", l.g14, 20}, {"n20", l.gBig, 3}}
	const p = 2
	x, grad := testPoint(p), make([]float64, 2*p)
	expect := map[string]float64{}
	for _, c := range classes {
		spec := problem.MaxCut(c.g)
		var pb *qaoa.Problem
		var err error
		d := timeReps(l.reps(c.reps), func() { pb, err = qaoa.New(spec) })
		if err != nil {
			return err
		}
		l.out["qaoa.new_ms_p50."+c.name] = medianDur(d) / 1e6

		ws := pb.NewWorkspace()
		ws.ValueGrad(x, grad) // warm: allocates the adjoint buffer
		var sink float64
		var ex, vg float64
		if c.g.N <= 10 {
			ex = perCallNs(l.reps(20), 200, func() { sink += ws.ExpectationVec(x) })
			vg = perCallNs(l.reps(20), 200, func() { sink += ws.ValueGrad(x, grad) })
		} else {
			ex = medianDur(timeReps(l.reps(2*c.reps), func() { sink += ws.ExpectationVec(x) }))
			vg = medianDur(timeReps(l.reps(c.reps), func() { sink += ws.ValueGrad(x, grad) }))
		}
		expect[c.name] = ex
		l.out["qaoa.expect_ns_per_amp_layer."+c.name] = ex / float64(int(1)<<uint(c.g.N)) / p
		if c.name != "n14" {
			l.out["qaoa.valuegrad_over_expect."+c.name] = vg / ex
		}
		if c.name == "n8" {
			before := mallocs()
			for i := 0; i < 1000; i++ {
				sink += ws.ExpectationVec(x)
			}
			l.out["qaoa.eval_allocs_per_op"] = float64(mallocs()-before) / 1000
		}
		_ = sink
		ws.Close()
	}

	// The same graph through the other stream kernel: the number ROADMAP
	// item 2 needs before deleting stream.go.
	in, err := problem.CompileMaxCut(l.gBig)
	if err != nil {
		return err
	}
	pbI, err := qaoa.NewIsing(in)
	if err != nil {
		return err
	}
	wsI := pbI.NewWorkspace()
	var sink float64
	wsI.ExpectationVec(x)
	ising := medianDur(timeReps(l.reps(7), func() { sink += wsI.ExpectationVec(x) }))
	wsI.Close()
	l.out["qaoa.maxcut_vs_ising_ratio.n20"] = expect["n20"] / ising

	pb8, err := qaoa.NewProblem(l.g8)
	if err != nil {
		return err
	}
	arena := qaoa.NewArena(0)
	for i := 0; i < 32; i++ {
		ev := qaoa.NewEvaluatorArena(pb8, p, arena)
		sink += ev.NegExpectation(x)
		ev.Release()
	}
	st := arena.Stats()
	arena.Close()
	l.out["qaoa.arena_reuse_rate"] = float64(st.Hits) / float64(st.Gets)

	be := qaoa.NewBatchEvaluator(pb8, 3, 0)
	points := make([][]float64, 12)
	for i := range points {
		points[i] = testPoint(3)
		points[i][0] += 0.01 * float64(i)
	}
	batch := perCallNs(l.reps(20), 50, func() { sink += be.EvalBatch(points)[0] })
	be.Release()
	_ = sink
	l.out["qaoa.batch_evals_per_s"] = 12 / (batch / 1e9)
	return nil
}

// ---- optimize ----

// optimizeRung runs each optimizer on eight n=8 depth-3 problems with
// the objective, batch and gradient closures wrapped in timers: self
// time is the run's wall time minus the time inside the closures. The
// timers' own cost (two clock reads per evaluation, ~1 % of a 10 µs
// evaluation) lands in self time.
func (l *ladder) optimizeRung() error {
	const p, graphs = 3, 8
	bounds := core.ParamBounds(p)
	type prob struct {
		pb *qaoa.Problem
		x0 []float64
	}
	probs := make([]prob, graphs)
	for i := range probs {
		pb, err := qaoa.NewProblem(graph.ErdosRenyiConnected(8, 0.5, l.rng))
		if err != nil {
			return err
		}
		probs[i] = prob{pb, bounds.Random(l.rng)}
	}
	for _, name := range optimizerNames {
		var wall, inside time.Duration
		var nfev, ngev, iters int
		var runMs []float64
		for _, pr := range probs {
			ev := qaoa.NewEvaluator(pr.pb, p)
			be := qaoa.NewBatchEvaluator(pr.pb, p, 0)
			clock := func(fn func()) {
				t0 := time.Now()
				fn()
				inside += time.Since(t0)
			}
			t0 := time.Now()
			r := optimize.Run(context.Background(), optimize.Problem{
				F:      func(x []float64) (v float64) { clock(func() { v = ev.NegExpectation(x) }); return },
				Batch:  func(pts [][]float64) (v []float64) { clock(func() { v = be.EvalBatch(pts) }); return },
				Grad:   func(x, g []float64) { clock(func() { ev.NegGrad(x, g) }) },
				X0:     pr.x0,
				Bounds: bounds,
			}, optimize.Options{Optimizer: newOptimizer(name)})
			d := time.Since(t0)
			wall += d
			runMs = append(runMs, ms(d))
			nfev, ngev, iters = nfev+r.NFev, ngev+r.NGev, iters+r.Iters
			ev.Release()
			be.Release()
		}
		l.out["optimize.self_share."+name] = float64(wall-inside) / float64(wall)
		l.out["optimize.nfev_per_run."+name] = float64(nfev) / graphs
		l.out["optimize.iters_per_run."+name] = float64(iters) / graphs
		if name == "lbfgsb" {
			l.out["optimize.ngev_per_run.lbfgsb"] = float64(ngev) / graphs
			l.out["optimize.run_ms_p50"] = stats.Median(runMs)
		}
	}
	return nil
}

// ---- ml + core ----

// shares splits a two-level solve by the twolevel.* spans the program
// already records into a telemetry.Memory passed as rec; what is left
// of the call's wall time (readout, canonicalization, evaluator
// set-up) is "other".
func (l *ladder) shares(suffix string, wall time.Duration, mem *telemetry.Memory) {
	spans := mem.Snapshot().Spans
	rest := 1.0
	for _, part := range []string{"level1", "predict", "level2"} {
		share := spans["twolevel."+part].TotalMs / ms(wall)
		l.out["core."+part+"_share."+suffix] = share
		rest -= share
	}
	l.out["core.other_share."+suffix] = rest
}

func (l *ladder) coreRung() error {
	ctx := context.Background()
	const graphs = 16
	var naiveMs, twoMs, predictUs []float64
	var fcNaive, fcTwo int
	var wall3 time.Duration
	mem := telemetry.NewMemory()
	for g := 0; g < graphs; g++ {
		spec := problem.MaxCut(graph.ErdosRenyiConnected(8, 0.5, l.rng))
		for depth := 2; depth <= 5; depth++ {
			start := l.rng.Int63()
			t0 := time.Now()
			nv, err := core.NaiveRunSpec(ctx, spec, depth, newOptimizer("lbfgsb"), rand.New(rand.NewSource(start)), nil)
			if err != nil {
				return err
			}
			naiveMs = append(naiveMs, ms(time.Since(t0)))
			t0 = time.Now()
			tw, err := core.TwoLevelSpec(ctx, spec, depth, newOptimizer("lbfgsb"), l.e.pred, rand.New(rand.NewSource(start)), nil)
			if err != nil {
				return err
			}
			twoMs = append(twoMs, ms(time.Since(t0)))
			fcNaive, fcTwo = fcNaive+nv.NFev, fcTwo+tw.TotalNFev

			feat := core.FeaturesFromParams(tw.Level1.Params, depth)
			t0 = time.Now()
			if _, err := l.e.pred.Predict(feat); err != nil {
				return err
			}
			predictUs = append(predictUs, us(time.Since(t0)))
		}
		t0 := time.Now()
		if _, err := core.TwoLevelSpec(ctx, spec, 3, newOptimizer("lbfgsb"), l.e.pred, rand.New(rand.NewSource(1)), mem); err != nil {
			return err
		}
		wall3 += time.Since(t0)
	}
	l.out["core.naive_ms_p50"] = stats.Median(naiveMs)
	l.out["core.twolevel_ms_p50"] = stats.Median(twoMs)
	l.out["core.fc_reduction_pct"] = 100 * (1 - float64(fcTwo)/float64(fcNaive))
	l.out["ml.predict_us_p50"] = stats.Median(predictUs)
	l.shares("n8", wall3, mem)

	// One whale-shaped solve for the large-register split.
	pb, err := qaoa.New(problem.MaxCut(l.gBig))
	if err != nil {
		return err
	}
	mem = telemetry.NewMemory()
	t0 := time.Now()
	if _, err := core.TwoLevelCtx(ctx, pb, 2, newOptimizer("lbfgsb"), l.e.pred, rand.New(rand.NewSource(1)), mem); err != nil {
		return err
	}
	l.shares("n20", time.Since(t0), mem)
	return nil
}

// ---- problem ----

func (l *ladder) problemRung() error {
	for _, family := range mixFamilies {
		spec, err := problem.RandomSpec(family, 8, l.rng)
		if err != nil {
			return err
		}
		if _, err := spec.Fingerprint(); err != nil {
			return err
		}
		l.out["problem.compile_us_p50."+family] = perCallNs(l.reps(20), 50, func() { _, _ = spec.Compile() }) / 1e3
		l.out["problem.fingerprint_us_p50."+family] = perCallNs(l.reps(20), 50, func() { _, _ = spec.Fingerprint() }) / 1e3
	}
	return nil
}

// ---- server + cluster ----

// serveRung takes server.* and cluster.* on fixed miniature mixes run
// through the workloads' own code: a cold mix and a hot mix on a single
// server, and the cold mix again on a fleet with the journal and
// dispatcher decorators recording. A serving workload's traced pass
// reports the same definitions on its own traffic under "insitu.".
func (l *ladder) serveRung() error {
	mini := func(workload string, seconds float64, rec *layerRec) (map[string]float64, error) {
		inst, err := buildServeScaled(l.e, workload, seconds, rec)
		if err != nil {
			return nil, err
		}
		defer inst.close()
		p, err := inst.run(nil)
		if err != nil {
			return nil, err
		}
		if p.failed > 0 {
			return nil, fmt.Errorf("ladder: %d of %d items failed on the miniature %s", p.failed, p.attempted, workload)
		}
		return p.serve, nil
	}
	// 20 cold specs (two at n=13, one at n=14) and 4000 hot items; the
	// smoke test halves the cold mixes, which drops the n=14 solve.
	coldSeconds := 20 / coldSpecsPerSecond
	if l.quick {
		coldSeconds /= 2
	}
	cold, err := mini(wCold, coldSeconds, nil)
	if err != nil {
		return err
	}
	hot, err := mini(wHot, 0.25, nil)
	if err != nil {
		return err
	}
	fleet, err := mini(wFleet, coldSeconds, &layerRec{})
	if err != nil {
		return err
	}
	for k, v := range cold {
		l.out[k] = v
	}
	for _, k := range []string{"server.hot_req_us_p50", "server.batch_item_us", "server.cache_hit_rate", "server.coalesced_share", "server.batch_deduped_share"} {
		l.out[k] = hot[k]
	}
	for k, v := range fleet {
		if strings.HasPrefix(k, "cluster.") {
			l.out[k] = v
		}
	}
	return nil
}

// ---- telemetry ----

func (l *ladder) telemetryRung() {
	ctx := context.Background()
	specs := make([]problem.Spec, 16)
	for i := range specs {
		specs[i] = problem.MaxCut(graph.ErdosRenyiConnected(8, 0.5, l.rng))
	}
	round := func(rec telemetry.Recorder) float64 {
		t0 := time.Now()
		for _, spec := range specs {
			_, _ = core.TwoLevelSpec(ctx, spec, 3, newOptimizer("lbfgsb"), l.e.pred, rand.New(rand.NewSource(1)), rec)
		}
		return float64(time.Since(t0))
	}
	// Alternate the two sides and take the median ratio: on a shared
	// host a slow second would otherwise land on one side only.
	round(nil)
	var ratios []float64
	for i := 0; i < l.reps(9); i++ {
		nop := round(nil)
		ratios = append(ratios, round(telemetry.NewMemory())/nop)
	}
	l.out["telemetry.memory_vs_nop_pct"] = 100 * (stats.Median(ratios) - 1)

	mem := telemetry.NewMemory()
	l.out["telemetry.span_ns"] = perCallNs(l.reps(20), 2000, func() { mem.Span("bench.span")() })
	l.out["telemetry.count_ns"] = perCallNs(l.reps(20), 2000, func() { mem.Count("bench.count", 1) })
	l.out["telemetry.observe_ns"] = perCallNs(l.reps(20), 2000, func() { mem.Observe("bench.observe", 1.5) })
}
