package core

import (
	"context"
	"math/rand"
	"testing"

	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/quantum"
	"qaoaml/internal/telemetry"
)

// Level 1 is answered in closed form (qaoa/depth1.go); these tests pin
// that the flows around it still count, cancel and trace exactly as
// they did when it was simulated.

func fourOptimizers() map[string]optimize.Optimizer {
	return map[string]optimize.Optimizer{
		"lbfgsb":     &optimize.LBFGSB{Tol: 1e-6},
		"slsqp":      &optimize.SLSQP{Tol: 1e-6},
		"neldermead": &optimize.NelderMead{Tol: 1e-6},
		"cobyla":     &optimize.COBYLA{Tol: 1e-6},
	}
}

// FC is the paper's metric: at depth 1 the optimizer's counts equal the
// calls that reached the evaluator — F calls as NFev, gradients as NGev
// — no circuit is simulated for any of them (no amplitude is
// allocated), and the flow reports the optimizer's own count.
func TestLevel1CountsEveryClosedFormCall(t *testing.T) {
	data := testData(t)
	pb := data.Problems[3]
	bounds := ParamBounds(1)
	for name, opt := range fourOptimizers() {
		ev := qaoa.NewEvaluator(pb, 1)
		mem := telemetry.NewMemory()
		var calls, grads int
		before := quantum.AmpBytesAllocated()
		r := optimize.Run(context.Background(), optimize.Problem{
			F:    func(x []float64) float64 { calls++; return ev.NegExpectation(x) },
			Grad: func(x, g []float64) { grads++; ev.NegGrad(x, g) },
			X0:   bounds.Random(rand.New(rand.NewSource(5))), Bounds: bounds,
		}, optimize.Options{Optimizer: opt, Recorder: mem})
		if r.NFev != calls || r.NGev != grads {
			t.Errorf("%s: optimizer reports NFev=%d NGev=%d, the evaluator was called %d and %d times",
				name, r.NFev, r.NGev, calls, grads)
		}
		if got := mem.Snapshot().Counters["optimize.fev_total"]; got != int64(r.NFev) {
			t.Errorf("%s: optimize.fev_total = %d, want %d", name, got, r.NFev)
		}
		if gradient := name == "lbfgsb" || name == "slsqp"; gradient != (grads > 0) {
			t.Errorf("%s: %d gradients", name, grads)
		}
		if d := quantum.AmpBytesAllocated() - before; d != 0 {
			t.Errorf("%s: level-1 run allocated %d amplitude bytes", name, d)
		}
		flow := solve(t, pb, Options{Depth: 1, Optimizer: opt, Rng: rand.New(rand.NewSource(5))})
		if flow.NFev != r.NFev {
			t.Errorf("%s: naive Solve at depth 1 reports NFev=%d, the same run by hand %d", name, flow.NFev, r.NFev)
		}
		// The state-vector reference of the closed form: ⟨C⟩/C_opt on a
		// MaxCut dataset.
		if want := pb.Expectation(flow.Params) / pb.OptValue; flow.AR < want-1e-12 || flow.AR > want+1e-12 {
			t.Errorf("%s: level-1 AR %v, state vector %v", name, flow.AR, want)
		}
		ev.Release()
	}
}

func TestTwoLevelTotalsForEveryOptimizer(t *testing.T) {
	data := testData(t)
	train, test := data.SplitIndices(0.5, 1)
	pred := NewPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		t.Fatal(err)
	}
	for name, opt := range fourOptimizers() {
		res, err := Solve(context.Background(), data.Problems[test[1]], Options{
			Strategy: StrategyTwoLevel, Depth: 2, Optimizer: opt, Predictor: pred, Rng: rand.New(rand.NewSource(9)),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		level1, level2 := res.Stages[0], res.Stages[1]
		if level1.NFev < 2 || level2.NFev < 1 || res.NFev != level1.NFev+level2.NFev {
			t.Errorf("%s: NFev %d, levels %d + %d", name, res.NFev, level1.NFev, level2.NFev)
		}
	}
}

// A cancel that lands while level 1 is optimizing returns the level-1
// incumbent with ctx.Err(), never starts level 2, and still closes the
// level-1 span.
func TestTwoLevelCancelledDuringLevel1(t *testing.T) {
	data := testData(t)
	train, test := data.SplitIndices(0.5, 1)
	pred := NewPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mem := telemetry.NewMemory()
	seen := 0
	rec := telemetry.Tee(mem, func(telemetry.IterEvent) {
		if seen++; seen == 2 {
			cancel()
		}
	})
	res, err := Solve(ctx, data.Problems[test[0]], Options{
		Strategy: StrategyTwoLevel, Depth: 3, Optimizer: &optimize.LBFGSB{Tol: 1e-6}, Predictor: pred,
		Rng: rand.New(rand.NewSource(3)), Recorder: rec,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Stages) != 1 || res.Stages[0].NFev < 2 || res.NFev != res.Stages[0].NFev {
		t.Fatalf("cancelled mid-level-1: %+v", res)
	}
	if level1 := res.Stages[0]; level1.Params.Depth() != 1 || level1.Params.Validate(true) != nil || level1.AR <= 0 {
		t.Errorf("level-1 incumbent unusable: %+v", level1)
	}
	snap := mem.Snapshot()
	if snap.Spans["twolevel.level1"].Count != 1 || snap.Spans["twolevel.level2"].Count != 0 {
		t.Errorf("spans after a level-1 cancel: %+v", snap.Spans)
	}
}
