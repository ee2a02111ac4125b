package core

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/telemetry"
)

// cancelAfterIters is a Recorder that cancels a context after seeing a
// fixed number of optimizer iteration events, and counts how many more
// arrive afterwards — a direct probe of "cancellation takes effect
// within one optimizer step".
type cancelAfterIters struct {
	telemetry.Nop
	cancel  context.CancelFunc
	trigger int64
	seen    atomic.Int64
	late    atomic.Int64
}

func (c *cancelAfterIters) Iteration(telemetry.IterEvent) {
	n := c.seen.Add(1)
	if n == c.trigger {
		c.cancel()
	} else if n > c.trigger {
		c.late.Add(1)
	}
}

// Cancelling mid-GenerateCtx stops within one optimizer step and still
// returns the fully completed records as a usable partial dataset.
func TestGenerateCtxCancelReturnsPartialData(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &cancelAfterIters{cancel: cancel, trigger: 40}
	cfg := DataGenConfig{
		NumGraphs: 8, Nodes: 6, EdgeProb: 0.5, MaxDepth: 3,
		Starts: 4, Seed: 7, Workers: 1, Recorder: rec,
	}
	data, err := GenerateCtx(ctx, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Promptness: after the cancelling event, the in-flight run exits at
	// its next loop top without emitting, and later runs never start.
	if late := rec.late.Load(); late > 1 {
		t.Errorf("%d iteration events after cancellation", late)
	}
	// Partial data: fewer records than the full 8×3 sweep, and every
	// record that was kept is complete and in-domain.
	total := 0
	for g, recs := range data.Records {
		for d, r := range recs {
			if r.Depth != d+1 || r.GraphID != g || r.NFev <= 0 {
				t.Errorf("partial record malformed: %+v", r)
			}
			if err := r.Params.Validate(true); err != nil {
				t.Errorf("partial record out of domain: %v", err)
			}
			total++
		}
	}
	if total >= cfg.NumGraphs*cfg.MaxDepth {
		t.Errorf("cancelled sweep completed all %d records", total)
	}
}

// A completed GenerateCtx run reports nil error and full telemetry.
func TestGenerateCtxTelemetry(t *testing.T) {
	mem := telemetry.NewMemory()
	cfg := DataGenConfig{
		NumGraphs: 3, Nodes: 5, EdgeProb: 0.6, MaxDepth: 2,
		Starts: 2, Seed: 11, Recorder: mem,
	}
	data, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := mem.CounterValue("datagen.records"); got != 6 {
		t.Errorf("datagen.records = %d, want 6", got)
	}
	if got := mem.CounterValue("datagen.graphs_done"); got != 3 {
		t.Errorf("datagen.graphs_done = %d, want 3", got)
	}
	for d := 1; d <= 2; d++ {
		name := map[int]string{1: "datagen.fc.p1", 2: "datagen.fc.p2"}[d]
		h, ok := mem.Snapshot().Histograms[name]
		if !ok || h.Count != 3 {
			t.Errorf("%s histogram: ok=%v count=%d", name, ok, h.Count)
		}
		wantSum := 0.0
		for g := 0; g < 3; g++ {
			wantSum += float64(data.Record(g, d).NFev)
		}
		if h.Sum != wantSum {
			t.Errorf("%s sum = %v, want %v", name, h.Sum, wantSum)
		}
	}
	if snap := mem.Snapshot(); snap.Spans["datagen.generate"].Count != 1 {
		t.Error("datagen.generate span not recorded")
	}
}

// GenerateCtx with a recorder stays bit-identical to plain Generate:
// observability must not perturb the numerics.
func TestGenerateCtxMatchesGenerate(t *testing.T) {
	cfg := DataGenConfig{NumGraphs: 4, Nodes: 5, EdgeProb: 0.6, MaxDepth: 2, Starts: 2, Seed: 3}
	plain, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = telemetry.NewMemory()
	traced, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for g := range plain.Records {
		for d := range plain.Records[g] {
			a, b := plain.Records[g][d], traced.Records[g][d]
			if a.NegF != b.NegF || a.NFev != b.NFev {
				t.Fatalf("recorder perturbed generation at graph %d depth %d", g, d+1)
			}
		}
	}
}

func TestNaiveRunCtxCancelled(t *testing.T) {
	data := testData(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := Solve(ctx, data.Problems[0], Options{Depth: 2, Optimizer: &optimize.LBFGSB{}, Rng: rand.New(rand.NewSource(1))})
	if err == nil {
		t.Fatal("cancelled naive Solve returned nil error")
	}
	if r.NFev > 1 {
		t.Errorf("pre-cancelled run spent %d evaluations", r.NFev)
	}
	if r.Params.Depth() != 2 {
		t.Errorf("partial result lost its shape: %+v", r)
	}
}

// Every strategy keeps one rule on cancel: a stage keeps the best start
// that finished, else the cancelled start's incumbent, so a solve
// cancelled in its first start still answers with in-domain angles.
func TestSolveCancelledKeepsIncumbent(t *testing.T) {
	_, pred := trainedOnHalf(t)
	pb, err := qaoa.NewProblem(graph.ErdosRenyiConnected(8, 0.5, rand.New(rand.NewSource(4))))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		o      Options
		stages int
	}{
		{"naive/starts3", Options{Depth: 2, Starts: 3}, 1},
		{"naive/starts1", Options{Depth: 2, Starts: 1}, 1},
		{"twolevel", Options{Strategy: StrategyTwoLevel, Depth: 2, Predictor: pred}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			o := c.o
			o.Optimizer, o.Rng = &optimize.LBFGSB{Tol: 1e-6}, rand.New(rand.NewSource(5))
			o.Recorder = &cancelAfterIters{cancel: cancel, trigger: 3}
			r, err := Solve(ctx, pb, o)
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if len(r.Stages) != c.stages {
				t.Fatalf("%d stages, want %d: %+v", len(r.Stages), c.stages, r)
			}
			if err := r.Params.Validate(true); err != nil {
				t.Errorf("incumbent: %v", err)
			}
			if !(r.AR > 0 && r.AR <= 1) {
				t.Errorf("AR = %v, want in (0, 1]", r.AR)
			}
			if r.NFev <= 0 || r.NFev != r.Stages[0].NFev {
				t.Errorf("NFev = %d, stage NFev = %d", r.NFev, r.Stages[0].NFev)
			}
		})
	}
}

func TestTwoLevelCtxSpansAndCancellation(t *testing.T) {
	data := testData(t)
	train, test := data.SplitIndices(0.5, 1)
	pred := NewPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		t.Fatal(err)
	}
	opt := &optimize.LBFGSB{Tol: 1e-6}
	pb := data.Problems[test[0]]

	// Full run: all three flow spans recorded, and the recorder does not
	// change the result.
	mem := telemetry.NewMemory()
	o := Options{Strategy: StrategyTwoLevel, Depth: 3, Optimizer: opt, Predictor: pred}
	o.Rng, o.Recorder = rand.New(rand.NewSource(3)), mem
	res := solve(t, pb, o)
	o.Rng, o.Recorder = rand.New(rand.NewSource(3)), nil
	want := solve(t, pb, o)
	if res.NFev != want.NFev || res.AR != want.AR {
		t.Errorf("recorded two-level run diverged from the plain one: %d/%v vs %d/%v",
			res.NFev, res.AR, want.NFev, want.AR)
	}
	snap := mem.Snapshot()
	for _, span := range []string{"twolevel.level1", "twolevel.predict", "twolevel.level2"} {
		if snap.Spans[span].Count != 1 {
			t.Errorf("span %s not recorded: %+v", span, snap.Spans[span])
		}
	}

	// Pre-cancelled: the flow stops after the level-1 probe with the
	// partial result and a non-nil error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o.Rng = rand.New(rand.NewSource(3))
	partial, err := Solve(ctx, pb, o)
	if err == nil {
		t.Fatal("cancelled two-level Solve returned nil error")
	}
	if partial.NFev > 1 || len(partial.Stages) != 1 {
		t.Errorf("cancelled flow kept optimizing: %+v", partial)
	}
}

// The acceptance pin for the telemetry layer's overhead: with the
// no-op Recorder in the loop, the QAOA evaluation hot path — one
// NegExpectation call plus the per-iteration record/count/observe/span
// calls Run makes — stays at 0 allocs/op.
func TestNopRecorderZeroAllocEvalPath(t *testing.T) {
	gr := graph.ErdosRenyiConnected(8, 0.5, rand.New(rand.NewSource(1)))
	pb, err := qaoa.NewProblem(gr)
	if err != nil {
		t.Fatal(err)
	}
	ev := qaoa.NewEvaluator(pb, 3)
	x := ParamBounds(3).Random(rand.New(rand.NewSource(2)))
	rec := telemetry.OrNop(nil)
	iter := 0
	allocs := testing.AllocsPerRun(50, func() {
		f := ev.NegExpectation(x)
		rec.Iteration(telemetry.IterEvent{Source: "L-BFGS-B", Iter: iter, F: f, NFev: iter})
		rec.Count("optimize.fev_total", 1)
		rec.Observe("optimize.nfev", f)
		rec.Span("twolevel.level1")()
		iter++
	})
	if allocs != 0 {
		t.Errorf("eval hot path with Nop recorder allocates %v/op", allocs)
	}
}
