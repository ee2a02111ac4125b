package qaoaml

// One benchmark per paper table/figure plus the ablation benches called
// out in DESIGN.md. Experiment benches run at a reduced scale (the
// structure of the computation is identical to the paper scale; only
// counts differ) so `go test -bench=. -benchmem` finishes in minutes.

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"qaoaml/internal/core"
	"qaoaml/internal/experiments"
	"qaoaml/internal/graph"
	"qaoaml/internal/ml"
	"qaoaml/internal/optimize"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/quantum"
)

// benchScale is the reduced experiment scale shared by the per-figure
// benchmarks.
func benchScale() experiments.Scale {
	return experiments.Scale{
		NumGraphs:  16,
		Nodes:      8,
		MaxDepth:   3,
		Starts:     4,
		TrainFrac:  0.4,
		Reps:       1,
		TestGraphs: 4,
		MaxTarget:  3,
		Seed:       1,
	}
}

var (
	benchEnvOnce sync.Once
	benchEnvVal  *experiments.Env
	benchEnvErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() { benchEnvVal, benchEnvErr = experiments.NewEnvCtx(context.Background(), benchScale(), nil) })
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnvVal
}

// --- one bench per paper artifact ---

// BenchmarkDataGen regenerates the Sec. III-A optimal-parameter dataset
// (reduced scale).
func BenchmarkDataGen(b *testing.B) {
	cfg := core.DataGenConfig{
		NumGraphs: 4, Nodes: 8, EdgeProb: 0.5,
		MaxDepth: 3, Starts: 3, Tol: 1e-6, Seed: 2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.GenerateCtx(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I (naive vs two-level, 4 optimizers).
func BenchmarkTable1(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable1(env)
		if len(res.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1c regenerates Fig. 1(c) (AR/FC distributions vs depth).
func BenchmarkFig1c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig1c(3, 3, 3)
		if len(res.Points) != 3 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig2 regenerates Fig. 2 (within-depth parameter patterns).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig2(3, 4)
		if len(res.Schedules) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig3 regenerates Fig. 3 (parameter trends vs depth).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig3(3, 3, 5)
		if len(res.GammaByDepth) != 3 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5 (correlation analysis).
func BenchmarkFig5(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig5(env)
		if len(res.Gamma) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6 (prediction-error distributions).
func BenchmarkFig6(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig6(env)
		if len(res.Points) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkModelComparison regenerates the Sec. III-C model ranking.
func BenchmarkModelComparison(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunModelComparison(env)
		if err != nil || len(res.Scores) != 4 {
			b.Fatalf("bad result (%v)", err)
		}
	}
}

// --- ablation benches (design choices from DESIGN.md) ---

func benchProblem(b *testing.B) *qaoa.Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	pb, err := qaoa.NewProblem(graph.ErdosRenyiConnected(8, 0.5, rng))
	if err != nil {
		b.Fatal(err)
	}
	return pb
}

// BenchmarkPhaseSeparatorDiagonal measures the fast diagonal path for
// one full depth-3 expectation evaluation.
func BenchmarkPhaseSeparatorDiagonal(b *testing.B) {
	pb := benchProblem(b)
	pr := qaoa.Params{Gamma: []float64{0.4, 0.7, 0.9}, Beta: []float64{0.5, 0.3, 0.2}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pb.Expectation(pr)
	}
}

// BenchmarkPhaseSeparatorGates measures the explicit CNOT·RZ·CNOT gate
// decomposition for the same circuit (the paper's literal circuit).
func BenchmarkPhaseSeparatorGates(b *testing.B) {
	pb := benchProblem(b)
	pr := qaoa.Params{Gamma: []float64{0.4, 0.7, 0.9}, Beta: []float64{0.5, 0.3, 0.2}}
	table := pb.Spec.Graph.WeightedCutTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := pb.GateState(pr)
		_ = st.ExpectationDiagonal(table)
	}
}

// BenchmarkExpectation measures one expectation evaluation per depth.
func BenchmarkExpectation(b *testing.B) {
	pb := benchProblem(b)
	for _, depth := range []int{1, 3, 5} {
		pr := qaoa.NewParams(depth)
		for i := range pr.Gamma {
			pr.Gamma[i] = 0.5
			pr.Beta[i] = 0.3
		}
		b.Run(map[int]string{1: "p1", 3: "p3", 5: "p5"}[depth], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = pb.Expectation(pr)
			}
		})
	}
}

// BenchmarkOptimizer runs each of the four local optimizers to
// convergence on the same depth-2 instance from the same start, with
// the adjoint gradient core passes.
func BenchmarkOptimizer(b *testing.B) {
	pb := benchProblem(b)
	bounds := core.ParamBounds(2)
	x0 := bounds.Random(rand.New(rand.NewSource(9)))
	for _, opt := range experiments.Optimizers() {
		b.Run(opt.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev := qaoa.NewEvaluator(pb, 2)
				r := optimize.Run(context.Background(), optimize.Problem{F: ev.NegExpectation, Grad: ev.NegGrad, X0: x0, Bounds: bounds},
					optimize.Options{Optimizer: opt})
				if r.NFev == 0 {
					b.Fatal("no evaluations")
				}
			}
		})
	}
}

// BenchmarkTwoLevelVsNaive measures one naive run and one two-level run
// at target depth 3 — the per-instance cost Table I aggregates.
func BenchmarkTwoLevelVsNaive(b *testing.B) {
	env := benchEnv(b)
	pb := env.Data.Problems[env.TestIDs[0]]
	opt := &optimize.LBFGSB{Tol: 1e-6}
	b.Run("naive", func(b *testing.B) {
		rng := rand.New(rand.NewSource(10))
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(context.Background(), pb, core.Options{Depth: 3, Optimizer: opt, Rng: rng}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("twolevel", func(b *testing.B) {
		rng := rand.New(rand.NewSource(10))
		for i := 0; i < b.N; i++ {
			o := core.Options{Strategy: core.StrategyTwoLevel, Depth: 3, Optimizer: opt, Rng: rng, Predictor: env.Predictor}
			if _, err := core.Solve(context.Background(), pb, o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGPR measures predictor-model fit and predict costs on a
// dataset-shaped task (2 features, 60 samples).
func BenchmarkGPR(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := make([][]float64, 60)
	y := make([]float64, 60)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = x[i][0]*0.5 + x[i][1]*0.2
	}
	b.Run("fit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var g ml.GPR
			if err := g.Fit(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("predict", func(b *testing.B) {
		var g ml.GPR
		if err := g.Fit(x, y); err != nil {
			b.Fatal(err)
		}
		q := []float64{0.4, 0.3, 3}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.Predict(q)
		}
	})
}

// BenchmarkMaxCutBruteForce measures the exact classical solve used for
// approximation ratios: problem.Instance.BruteForce on the compiled
// instance, as qaoa.New runs it (8 nodes → 128 assignments).
func BenchmarkMaxCutBruteForce(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	in, err := problem.MaxCut(graph.ErdosRenyiConnected(8, 0.5, rng)).Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = in.BruteForce()
	}
}

// BenchmarkStateGates measures raw simulator gate throughput at 8 qubits.
func BenchmarkStateGates(b *testing.B) {
	b.Run("H", func(b *testing.B) {
		s := quantum.NewState(8)
		for i := 0; i < b.N; i++ {
			s.H(i % 8)
		}
	})
	b.Run("RX", func(b *testing.B) {
		s := quantum.NewState(8)
		for i := 0; i < b.N; i++ {
			s.RX(i%8, 0.3)
		}
	})
	b.Run("CNOT", func(b *testing.B) {
		s := quantum.NewState(8)
		for i := 0; i < b.N; i++ {
			s.CNOT(i%8, (i+1)%8)
		}
	})
}

// BenchmarkHierarchical regenerates the Sec. I(d) hierarchical-vs-
// two-level ablation.
func BenchmarkHierarchical(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHierarchical(env)
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("bad result (%v)", err)
		}
	}
}

// BenchmarkCanonicalize measures the symmetry folding applied to every
// recorded optimum.
func BenchmarkCanonicalize(b *testing.B) {
	pb := benchProblem(b)
	pr := qaoa.Params{Gamma: []float64{5.9, 1.2, 4.4}, Beta: []float64{2.3, -0.4, 1.9}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pb.Canonicalize(pr)
	}
}

// BenchmarkWeightedExpectation measures a weighted-MaxCut expectation
// evaluation (same code path as Table I but with non-unit weights).
func BenchmarkWeightedExpectation(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	g := graph.New(8)
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			if rng.Float64() < 0.5 {
				if err := g.AddWeightedEdge(u, v, 0.5+rng.Float64()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	pb, err := qaoa.NewProblem(g)
	if err != nil {
		b.Fatal(err)
	}
	pr := qaoa.Params{Gamma: []float64{0.4, 0.7}, Beta: []float64{0.5, 0.3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pb.Expectation(pr)
	}
}

// BenchmarkDatasetPersistence measures dataset save/load round trips.
func BenchmarkDatasetPersistence(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := env.Data.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- evaluation-engine kernel benches ---

// BenchmarkRXAll compares the fused all-qubit mixing layer against the
// equivalent per-qubit RX loop it replaces.
func BenchmarkRXAll(b *testing.B) {
	b.Run("fused", func(b *testing.B) {
		s := quantum.NewUniformState(8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.RXAll(0.6)
		}
	})
	b.Run("perqubit", func(b *testing.B) {
		s := quantum.NewUniformState(8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for q := 0; q < 8; q++ {
				s.RX(q, 0.6)
			}
		}
	})
}

// BenchmarkNegExpectation measures the evaluator hot path the optimizers
// drive — one depth-3 objective call on a warm workspace (0 allocs).
func BenchmarkNegExpectation(b *testing.B) {
	pb := benchProblem(b)
	ev := qaoa.NewEvaluator(pb, 3)
	x := []float64{0.4, 0.7, 0.9, 0.5, 0.3, 0.2}
	_ = ev.NegExpectation(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.NegExpectation(x)
	}
}

// BenchmarkBatchEval measures EvalBatch throughput on a 12-point batch
// (the size of one depth-3 central-difference gradient stencil).
func BenchmarkBatchEval(b *testing.B) {
	pb := benchProblem(b)
	be := qaoa.NewBatchEvaluator(pb, 3, 0)
	rng := rand.New(rand.NewSource(18))
	bounds := core.ParamBounds(3)
	points := make([][]float64, 12)
	for i := range points {
		points[i] = bounds.Random(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = be.EvalBatch(points)
	}
}

// BenchmarkGradientAdjoint measures one adjoint-mode value+gradient
// sweep per depth.
func BenchmarkGradientAdjoint(b *testing.B) {
	pb := benchProblem(b)
	for _, depth := range []int{1, 3, 5} {
		b.Run(map[int]string{1: "p1", 3: "p3", 5: "p5"}[depth], func(b *testing.B) {
			ev := qaoa.NewEvaluator(pb, depth)
			x := core.ParamBounds(depth).Random(rand.New(rand.NewSource(20)))
			grad := make([]float64, len(x))
			_ = ev.NegValueGrad(x, grad) // warm the workspace + adjoint buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ev.NegValueGrad(x, grad)
			}
		})
	}
}

// BenchmarkLBFGSBGradientPath runs L-BFGS-B to convergence on a depth-5
// instance from a fixed start with the adjoint gradient, and reports
// NFev per run.
func BenchmarkLBFGSBGradientPath(b *testing.B) {
	pb := benchProblem(b)
	bounds := core.ParamBounds(5)
	x0 := bounds.Random(rand.New(rand.NewSource(21)))
	b.Run("adjoint", func(b *testing.B) {
		ev := qaoa.NewEvaluator(pb, 5)
		nfev := 0
		for i := 0; i < b.N; i++ {
			r := optimize.Run(context.Background(),
				optimize.Problem{F: ev.NegExpectation, Grad: ev.NegGrad, X0: x0, Bounds: bounds},
				optimize.Options{Optimizer: &optimize.LBFGSB{}})
			if r.NGev == 0 {
				b.Fatal("no gradient evaluations")
			}
			nfev += r.NFev
		}
		b.ReportMetric(float64(nfev)/float64(b.N), "nfev/run")
	})
}

// --- large-register scaling benches (streaming cost + parallel kernels) ---

// largeBenchProblem builds a 3-regular MaxCut instance above
// qaoa.StreamingThreshold: no 2^n cost table exists, C(z) is generated
// from the term lists per fixed-geometry chunk.
func largeBenchProblem(b *testing.B, n int) *qaoa.Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(40 + n)))
	pb, err := qaoa.NewProblem(graph.RandomRegular(n, 3, rng))
	if err != nil {
		b.Fatal(err)
	}
	return pb
}

// BenchmarkExpectationLargeN measures one depth-1 expectation at 16,
// 20, 22 and 24 qubits through the streaming kernel — the scaling
// targets the small-n engine could not reach (a 2^22 cost+index table
// pair alone would cost 48 MiB).
func BenchmarkExpectationLargeN(b *testing.B) {
	for _, n := range []int{16, 20, 22, 24} {
		n := n
		b.Run(map[int]string{16: "n16", 20: "n20", 22: "n22", 24: "n24"}[n], func(b *testing.B) {
			pb := largeBenchProblem(b, n)
			ws := pb.NewWorkspace() // a depth-1 Evaluator would answer in closed form
			defer ws.Close()
			x := []float64{0.4, 0.3}
			_ = ws.ExpectationVec(x) // warm the workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ws.ExpectationVec(x)
			}
		})
	}
}

// BenchmarkGradientAdjointLargeN measures one adjoint value+gradient
// sweep on a 20-qubit depth-3 instance — the large-register gradient
// path (streamed observable application and matrix elements).
func BenchmarkGradientAdjointLargeN(b *testing.B) {
	pb := largeBenchProblem(b, 20)
	b.Run("n20-p3", func(b *testing.B) {
		ev := qaoa.NewEvaluator(pb, 3)
		x := []float64{0.4, 0.7, 0.9, 0.5, 0.3, 0.2}
		grad := make([]float64, len(x))
		_ = ev.NegValueGrad(x, grad) // warm workspace + adjoint buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ev.NegValueGrad(x, grad)
		}
	})
}
