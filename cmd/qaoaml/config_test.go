package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qaoaml/internal/experiments"
)

func parse(t *testing.T, args ...string) (RunConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet("qaoaml", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return FromFlags(fs, args)
}

func TestFromFlagsDefaultsAreValid(t *testing.T) {
	cfg, err := parse(t, "datagen")
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Scale.Validate(); err != nil {
		t.Errorf("default scale invalid: %v", err)
	}
	if cfg.Scale != experiments.DefaultScale() {
		t.Errorf("scale %+v, want DefaultScale", cfg.Scale)
	}
	if cfg.Timeout != 0 || cfg.Metrics != "" {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
}

func TestFromFlagsRejectsNonsense(t *testing.T) {
	bad := [][]string{
		{"-graphs", "-3"},
		{"-nodes", "-1"},
		{"-starts", "-5"},
		{"-reps", "-2"},
		{"-workers", "-4"},
		{"-max-target", "-1"},
		{"-test-graphs", "-2"},
		{"-train-frac", "1.5"},
		{"-train-frac", "-0.2"},
		{"-timeout", "-10s"},
		{"-load-data", "a.json", "-save-data", "b.json"},
	}
	for _, args := range bad {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestFromFlagsOverridesApply(t *testing.T) {
	cfg, err := parse(t, "-paper", "-graphs", "12", "-train-frac", "0.5",
		"-workers", "3", "-timeout", "90s", "-test-graphs", "0")
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Scale
	if s.NumGraphs != 12 || s.TrainFrac != 0.5 || s.Workers != 3 || s.TestGraphs != 0 {
		t.Errorf("overrides not applied: %+v", s)
	}
	// -paper values survive where not overridden.
	if s.Starts != 20 || s.MaxDepth != 6 {
		t.Errorf("paper scale lost: %+v", s)
	}
	if cfg.Timeout != 90*time.Second {
		t.Errorf("timeout = %v", cfg.Timeout)
	}
	ctx, cancel := cfg.Context()
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Error("Context() has no deadline despite -timeout")
	}
}

// Every output path is checked before any work: a -csv directory, and
// the directory of a -save-data, -model-out or -metrics file, must
// exist, so a typo no longer fails after the dataset sweep.
func TestFromFlagsChecksOutputDirs(t *testing.T) {
	dir := t.TempDir()
	missing, file := filepath.Join(dir, "missing"), filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-csv", missing, "fig6"},
		{"-csv", file, "fig6"},
		{"-save-data", filepath.Join(missing, "d.json"), "datagen"},
		{"-model-out", filepath.Join(missing, "m.json"), "datagen"},
		{"-metrics", filepath.Join(missing, "t.json"), "datagen"},
		{"-metrics", filepath.Join(file, "t.json"), "datagen"},
	} {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	if _, err := parse(t, "-csv", dir, "-save-data", filepath.Join(dir, "d.json"),
		"-model-out", filepath.Join(dir, "m.json"), "-metrics", filepath.Join(dir, "t.json"), "all"); err != nil {
		t.Errorf("existing directories refused: %v", err)
	}
	if _, err := parse(t, "-model-out", "m.json", "datagen"); err != nil {
		t.Errorf("a file in the working directory refused: %v", err)
	}
}

// A target past -maxdepth is checked only where -maxdepth sets the
// dataset's depth (experiments.NewEnvCtx): fig3 reads no dataset, and a
// loaded dataset brings its own depth.
func TestFromFlagsTargetPastDepth(t *testing.T) {
	for _, args := range [][]string{
		{"-maxdepth", "3", "-max-target", "4", "-starts", "2", "fig3"},
		{"-load-data", "d.json", "-max-target", "6", "table1"},
	} {
		cfg, err := parse(t, args...)
		if err != nil {
			t.Errorf("args %v refused: %v", args, err)
		} else if cfg.Scale.MaxTarget <= cfg.Scale.MaxDepth {
			t.Errorf("args %v: scale %+v", args, cfg.Scale)
		}
	}
}

// -paper rebases the scale wherever it stands: a scale flag given
// before it still wins, and -paper=false keeps the default scale.
func TestFromFlagsPaperPrecedence(t *testing.T) {
	cfg, err := parse(t, "-graphs", "12", "-seed", "0", "-paper", "table1")
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.PaperScale()
	want.NumGraphs, want.Seed = 12, 0
	if cfg.Scale != want {
		t.Errorf("flags before -paper: scale %+v, want %+v", cfg.Scale, want)
	}
	cfg, err = parse(t, "-paper=false", "table1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Paper || cfg.Scale != experiments.DefaultScale() {
		t.Errorf("-paper=false: paper %v, scale %+v, want DefaultScale", cfg.Paper, cfg.Scale)
	}
}

// The usage text lists every experiment of experimentTable, the dataset
// and Table I first.
func TestUsageText(t *testing.T) {
	const want = `usage: qaoaml [flags] <experiment>

experiments:
  datagen   generate the optimal-parameter dataset and print summary stats
  table1    Table I  — naive vs two-level FC/AR for 4 optimizers × depths
  fig1c     Fig 1(c) — AR and QC-call distributions vs depth
  fig2      Fig 2    — within-depth optimal parameter patterns
  fig3      Fig 3    — optimal parameters vs circuit depth
  fig5      Fig 5    — predictor/response correlation analysis
  fig6      Fig 6    — ML prediction error distributions
  mlcmp     Sec III-C — GPR vs LM vs RTREE vs RSVM comparison
  hier      Sec I(d)  — hierarchical vs two-level vs naive ablation
  all       everything above (one shared dataset)

flags:
`
	var b strings.Builder
	writeUsage(&b)
	if b.String() != want {
		t.Errorf("usage text:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experimentTable) {
		t.Fatalf("all: %d experiments, %v", len(all), err)
	}
	if one, err := selectExperiments("hier"); err != nil || len(one) != 1 || one[0].id != "hier" {
		t.Errorf("hier: %v, %v", one, err)
	}
	if _, err := selectExperiments("bogus"); err == nil {
		t.Error("an unknown experiment was accepted")
	}
}
