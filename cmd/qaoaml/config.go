package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"qaoaml/internal/experiments"
)

// RunConfig groups every qaoaml flag into one validated bundle. The ten
// scale flags write experiments.Scale's fields directly, starting from
// DefaultScale, or from PaperScale with -paper; FromFlags checks the
// result and that every output path's directory exists, so bad input
// fails before the dataset sweep starts rather than deep inside it or
// after it.
type RunConfig struct {
	Paper bool // rebase the scale onto PaperScale; the scale flags given still win
	Scale experiments.Scale

	// Run controls.
	Timeout time.Duration // 0 = no deadline
	Metrics string        // write the telemetry snapshot JSON here

	// I/O.
	SaveData string
	LoadData string
	CSVDir   string
	ModelOut string // export the trained predictor for qaoad -models
}

// RegisterFlags binds the config's fields to fs, the scale's at
// DefaultScale's values.
func (c *RunConfig) RegisterFlags(fs *flag.FlagSet) {
	c.Scale = experiments.DefaultScale()
	s := &c.Scale
	fs.BoolVar(&c.Paper, "paper", false, "start from the paper's full experimental scale (the scale flags given override it)")
	fs.IntVar(&s.NumGraphs, "graphs", s.NumGraphs, "dataset graph count")
	fs.IntVar(&s.Nodes, "nodes", s.Nodes, "graph size")
	fs.IntVar(&s.MaxDepth, "maxdepth", s.MaxDepth, "dataset max depth")
	fs.IntVar(&s.Starts, "starts", s.Starts, "datagen multistart count")
	fs.IntVar(&s.Reps, "reps", s.Reps, "Table I repetitions per graph")
	fs.IntVar(&s.TestGraphs, "test-graphs", s.TestGraphs, "cap on test graphs (0 = all)")
	fs.Float64Var(&s.TrainFrac, "train-frac", s.TrainFrac, "train split fraction")
	fs.IntVar(&s.MaxTarget, "max-target", s.MaxTarget, "largest target depth")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "RNG seed")
	fs.IntVar(&s.Workers, "workers", s.Workers, "datagen parallelism (0 = GOMAXPROCS)")
	fs.DurationVar(&c.Timeout, "timeout", 0, "overall deadline (e.g. 90s; 0 = none)")
	fs.StringVar(&c.Metrics, "metrics", "", "write collected telemetry as JSON to this file")
	fs.StringVar(&c.SaveData, "save-data", "", "write the generated dataset to this JSON file")
	fs.StringVar(&c.LoadData, "load-data", "", "load the dataset from this JSON file instead of generating")
	fs.StringVar(&c.CSVDir, "csv", "", "also write each experiment's result as CSV into this directory")
	fs.StringVar(&c.ModelOut, "model-out", "", "write the trained predictor as JSON (servable via qaoad -models)")
}

// FromFlags parses args into a validated RunConfig.
func FromFlags(fs *flag.FlagSet, args []string) (RunConfig, error) {
	var c RunConfig
	c.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.Paper {
		// Rebase onto the paper's scale; parsing again re-applies the
		// flags given, wherever they stood relative to -paper.
		c.Scale = experiments.PaperScale()
		if err := fs.Parse(args); err != nil {
			return c, err
		}
	}
	if c.Timeout < 0 {
		return c, fmt.Errorf("-timeout %v is negative", c.Timeout)
	}
	if c.LoadData != "" && c.SaveData != "" {
		return c, fmt.Errorf("-load-data and -save-data are mutually exclusive")
	}
	for _, out := range []struct{ flag, path, dir string }{
		{"-csv", c.CSVDir, c.CSVDir},
		{"-save-data", c.SaveData, filepath.Dir(c.SaveData)},
		{"-model-out", c.ModelOut, filepath.Dir(c.ModelOut)},
		{"-metrics", c.Metrics, filepath.Dir(c.Metrics)},
	} {
		if out.path == "" {
			continue
		}
		if fi, err := os.Stat(out.dir); err != nil {
			return c, fmt.Errorf("%s: %w", out.flag, err)
		} else if !fi.IsDir() {
			return c, fmt.Errorf("%s: %s is not a directory", out.flag, out.dir)
		}
	}
	return c, c.Scale.Validate()
}

// Context returns the run context honoring -timeout.
func (c RunConfig) Context() (context.Context, context.CancelFunc) {
	if c.Timeout > 0 {
		return context.WithTimeout(context.Background(), c.Timeout)
	}
	return context.WithCancel(context.Background())
}
