// Package experiments reproduces every table and figure of the paper's
// evaluation: Fig. 1(c) (AR/FC vs depth), Fig. 2 (within-depth
// parameter patterns), Fig. 3 (parameter trends vs depth), Fig. 5
// (predictor/response correlations), Fig. 6 (prediction-error
// distributions), Table I (naive vs two-level run-time comparison),
// and the Sec. III-C model comparison. Each experiment has a Run
// function returning a structured result with a text rendering.
package experiments

import (
	"context"
	"fmt"

	"qaoaml/internal/core"
	"qaoaml/internal/ml"
	"qaoaml/internal/optimize"
	"qaoaml/internal/qaoa"
	"qaoaml/internal/telemetry"
)

// Scale collects the knobs that trade fidelity for run time. The
// paper-scale values are in PaperScale; DefaultScale runs the full
// pipeline in tens of seconds.
type Scale struct {
	NumGraphs  int     // dataset graphs (paper: 330)
	Nodes      int     // vertices per graph (paper: 8)
	EdgeProb   float64 // Erdős–Rényi edge probability (paper: 0.5)
	MaxDepth   int     // dataset depths 1..MaxDepth (paper: 6)
	Starts     int     // datagen multistarts per instance (paper: 20)
	TrainFrac  float64 // train split fraction (paper: 0.2)
	Reps       int     // runs per (graph, optimizer, depth) in Table I (paper: 20)
	TestGraphs int     // cap on test graphs used by Table I / Fig. 6 (0 = all)
	MaxTarget  int     // largest target depth evaluated (paper: 5)
	Workers    int     // datagen parallelism (0 = GOMAXPROCS)
	Seed       int64
}

// DefaultScale is a medium-scale configuration for interactive runs.
func DefaultScale() Scale {
	return Scale{
		NumGraphs:  60,
		Nodes:      8,
		EdgeProb:   0.5,
		MaxDepth:   5,
		Starts:     10,
		TrainFrac:  0.2,
		Reps:       3,
		TestGraphs: 24,
		MaxTarget:  5,
		Seed:       1,
	}
}

// PaperScale is the paper's full experimental setup (Secs. III-IV).
func PaperScale() Scale {
	return Scale{
		NumGraphs:  330,
		Nodes:      8,
		EdgeProb:   0.5,
		MaxDepth:   6,
		Starts:     20,
		TrainFrac:  0.2,
		Reps:       20,
		TestGraphs: 0, // all 264 test graphs
		MaxTarget:  5,
		Seed:       1,
	}
}

// Validate sanity-checks the scale.
func (s Scale) Validate() error {
	if s.NumGraphs < 5 {
		return fmt.Errorf("experiments: NumGraphs %d too small", s.NumGraphs)
	}
	if s.MaxDepth < 2 {
		return fmt.Errorf("experiments: MaxDepth %d < 2", s.MaxDepth)
	}
	if s.MaxTarget < 2 || s.MaxTarget > s.MaxDepth {
		return fmt.Errorf("experiments: MaxTarget %d out of [2, MaxDepth=%d]", s.MaxTarget, s.MaxDepth)
	}
	if s.TrainFrac <= 0 || s.TrainFrac >= 1 {
		return fmt.Errorf("experiments: TrainFrac %v out of (0,1)", s.TrainFrac)
	}
	if s.Reps < 1 {
		return fmt.Errorf("experiments: Reps %d < 1", s.Reps)
	}
	return nil
}

// Env is the shared experimental environment: the generated dataset,
// its train/test split, and the trained GPR predictor. Building it is
// the dominant cost, so experiments share one Env.
type Env struct {
	Scale     Scale
	Data      *core.Data
	TrainIDs  []int
	TestIDs   []int
	Predictor *core.Predictor
}

// NewEnv generates the dataset and trains the default (GPR) predictor.
func NewEnv(s Scale) (*Env, error) {
	return NewEnvCtx(context.Background(), s, nil)
}

// NewEnvCtx is NewEnv with cancellation and telemetry: the context and
// recorder are threaded through dataset generation, so a deadline stops
// the sweep within one optimizer step. Unlike core.GenerateCtx it does
// not return a partial Env — an interrupted dataset cannot back a fair
// experiment — so cancellation surfaces as an error.
func NewEnvCtx(ctx context.Context, s Scale, rec telemetry.Recorder) (*Env, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg := core.DataGenConfig{
		NumGraphs: s.NumGraphs,
		Nodes:     s.Nodes,
		EdgeProb:  s.EdgeProb,
		MaxDepth:  s.MaxDepth,
		Starts:    s.Starts,
		Tol:       1e-6,
		Seed:      s.Seed,
		Workers:   s.Workers,
		Recorder:  rec,
	}
	data, err := core.GenerateCtx(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: dataset generation: %w", err)
	}
	return NewEnvFromData(s, data)
}

// NewEnvFromData builds an Env around an existing (e.g. loaded)
// dataset, overriding the scale's generation knobs with the dataset's
// actual configuration.
func NewEnvFromData(s Scale, data *core.Data) (*Env, error) {
	s.NumGraphs = len(data.Problems)
	s.Nodes = data.Config.Nodes
	s.EdgeProb = data.Config.EdgeProb
	s.MaxDepth = data.Config.MaxDepth
	s.Starts = data.Config.Starts
	if s.MaxTarget > s.MaxDepth {
		s.MaxTarget = s.MaxDepth
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	train, test := data.SplitIndices(s.TrainFrac, s.Seed+1)
	pred := core.NewPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		return nil, err
	}
	return &Env{Scale: s, Data: data, TrainIDs: train, TestIDs: test, Predictor: pred}, nil
}

// testSubset returns the test ids capped at Scale.TestGraphs.
func (e *Env) testSubset() []int {
	if e.Scale.TestGraphs > 0 && e.Scale.TestGraphs < len(e.TestIDs) {
		return e.TestIDs[:e.Scale.TestGraphs]
	}
	return e.TestIDs
}

// Optimizers returns the paper's four local optimizers at tolerance
// 1e-6, keyed in the order of Table I.
func Optimizers() []optimize.Optimizer {
	var opts []optimize.Optimizer
	for _, name := range []string{"lbfgsb", "neldermead", "slsqp", "cobyla"} {
		opt, _ := optimize.ByName(name, 1e-6)
		opts = append(opts, opt)
	}
	return opts
}

// solve is core.Solve for the experiment sweeps, which nothing cancels:
// an error is a predictor without the bank asked for or a bad start
// count, and aborts the sweep.
func solve(pb *qaoa.Problem, o core.Options) core.Result {
	r, err := core.Solve(context.Background(), pb, o)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return r
}

// ModelFactories returns the paper's four regression model families as
// configured for the Sec. III-C prediction-accuracy comparison. The GPR
// here grid-selects the additive linear kernel term (LinearVar):
// the comparison evaluates on in-distribution features (multistart-best
// depth-1 optima), where the richer kernel is strictly better. The
// production Predictor (core.NewPredictor) deliberately uses the
// RBF-only default instead — see EXPERIMENTS.md.
func ModelFactories() map[string]func() ml.Regressor {
	return map[string]func() ml.Regressor{
		"GPR":   func() ml.Regressor { return &ml.GPR{LinearVar: true} },
		"LM":    func() ml.Regressor { return &ml.Linear{} },
		"RTREE": func() ml.Regressor { return &ml.Tree{} },
		"RSVM":  func() ml.Regressor { return &ml.SVR{} },
	}
}
