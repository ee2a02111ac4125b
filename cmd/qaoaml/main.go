// Command qaoaml regenerates every table and figure of "Accelerating
// Quantum Approximate Optimization Algorithm using Machine Learning"
// (Alam, Ash-Saki, Ghosh — DATE 2020).
//
// Usage:
//
//	qaoaml [flags] <experiment>
//
// Run with no arguments for the experiments (experimentTable) and flags.
//
// The default scale runs in tens of seconds; -paper restores the
// paper's full setup (330 graphs, 20 starts, 20 reps — minutes of CPU).
// -timeout bounds the run (cancellation lands within one optimizer
// step), and -metrics dumps the collected telemetry — per-depth FC
// histograms, optimizer run stats, flow spans — as JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"qaoaml/internal/core"
	"qaoaml/internal/experiments"
	"qaoaml/internal/stats"
	"qaoaml/internal/telemetry"
)

func main() {
	flag.Usage = usage
	cfg, err := FromFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "qaoaml:", err)
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}

	ctx, cancel := cfg.Context()
	defer cancel()
	var mem *telemetry.Memory
	if cfg.Metrics != "" {
		mem = telemetry.NewMemory()
	}

	runErr := run(ctx, flag.Arg(0), cfg, mem)
	if mem != nil {
		// Dump whatever was collected even when the run was cut short:
		// partial metrics are exactly what a timed-out sweep leaves behind.
		if err := writeMetrics(cfg.Metrics, mem); err != nil {
			fmt.Fprintln(os.Stderr, "qaoaml:", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry written to %s\n", cfg.Metrics)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "qaoaml:", runErr)
		os.Exit(1)
	}
}

func writeMetrics(path string, mem *telemetry.Memory) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mem.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// result is what an experiment prints and, with -csv, writes as CSV.
type result interface {
	String() string
	CSV() string
}

// experiment is one subcommand. experimentTable is the order "all"
// runs them in, on one shared dataset.
type experiment struct {
	id, usage string
	needsData bool // runs on the generated dataset and trained predictor
	allDepth  int  // "all" skips it when the dataset is shallower
	run       func(*experiments.Env, experiments.Scale) (result, error)
}

var experimentTable = []experiment{
	{"datagen", "generate the optimal-parameter dataset and print summary stats", true, 0,
		func(env *experiments.Env, _ experiments.Scale) (result, error) {
			printDatagenSummary(env)
			return nil, nil
		}},
	{"fig1c", "Fig 1(c) — AR and QC-call distributions vs depth", false, 0,
		func(_ *experiments.Env, s experiments.Scale) (result, error) {
			return experiments.RunFig1c(s.MaxTarget, s.Starts, s.Seed), nil
		}},
	{"fig2", "Fig 2    — within-depth optimal parameter patterns", false, 0,
		func(_ *experiments.Env, s experiments.Scale) (result, error) {
			return experiments.RunFig2(s.Starts, s.Seed), nil
		}},
	{"fig3", "Fig 3    — optimal parameters vs circuit depth", false, 0,
		func(_ *experiments.Env, s experiments.Scale) (result, error) {
			return experiments.RunFig3(s.MaxTarget, s.Starts, s.Seed), nil
		}},
	{"fig5", "Fig 5    — predictor/response correlation analysis", true, 0,
		func(env *experiments.Env, _ experiments.Scale) (result, error) { return experiments.RunFig5(env), nil }},
	{"fig6", "Fig 6    — ML prediction error distributions", true, 0,
		func(env *experiments.Env, _ experiments.Scale) (result, error) { return experiments.RunFig6(env), nil }},
	{"mlcmp", "Sec III-C — GPR vs LM vs RTREE vs RSVM comparison", true, 0,
		func(env *experiments.Env, _ experiments.Scale) (result, error) {
			return experiments.RunModelComparison(env)
		}},
	{"hier", "Sec I(d)  — hierarchical vs two-level vs naive ablation", true, 3,
		func(env *experiments.Env, _ experiments.Scale) (result, error) {
			return experiments.RunHierarchical(env)
		}},
	{"table1", "Table I  — naive vs two-level FC/AR for 4 optimizers × depths", true, 0,
		func(env *experiments.Env, _ experiments.Scale) (result, error) {
			return experiments.RunTable1(env), nil
		}},
}

func usage() {
	writeUsage(os.Stderr)
	flag.PrintDefaults()
}

// writeUsage lists the experiments: the dataset and Table I, the
// paper's headline, first, then the rest in run order.
func writeUsage(w io.Writer) {
	last := len(experimentTable) - 1
	listed := append([]experiment{experimentTable[0], experimentTable[last]}, experimentTable[1:last]...)
	fmt.Fprint(w, "usage: qaoaml [flags] <experiment>\n\nexperiments:\n")
	for _, e := range listed {
		fmt.Fprintf(w, "  %-9s %s\n", e.id, e.usage)
	}
	fmt.Fprintf(w, "  %-9s %s\n\nflags:\n", "all", "everything above (one shared dataset)")
}

// selectExperiments returns the experiments name runs: one, or the
// whole table for "all".
func selectExperiments(name string) ([]experiment, error) {
	if name == "all" {
		return experimentTable, nil
	}
	for _, e := range experimentTable {
		if e.id == name {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (run with no arguments for usage)", name)
}

func run(ctx context.Context, name string, cfg RunConfig, mem *telemetry.Memory) error {
	start := time.Now()
	todo, err := selectExperiments(name)
	if err != nil {
		return err
	}
	scale := cfg.Scale
	var rec telemetry.Recorder // stays untyped-nil when -metrics is off
	if mem != nil {
		rec = mem
	}
	var env *experiments.Env
	if slices.ContainsFunc(todo, func(e experiment) bool { return e.needsData }) {
		if cfg.LoadData != "" {
			fmt.Printf("loading dataset from %s...\n", cfg.LoadData)
			data, lerr := core.LoadFile(cfg.LoadData)
			if lerr != nil {
				return lerr
			}
			env, err = experiments.NewEnvFromData(scale, data)
		} else {
			fmt.Printf("generating dataset: %d graphs × depths 1..%d × %d starts (seed %d)...\n",
				scale.NumGraphs, scale.MaxDepth, scale.Starts, scale.Seed)
			env, err = experiments.NewEnvCtx(ctx, scale, rec)
		}
		if err != nil {
			return err
		}
		if cfg.SaveData != "" {
			if err := env.Data.SaveFile(cfg.SaveData); err != nil {
				return err
			}
			fmt.Printf("dataset written to %s\n", cfg.SaveData)
		}
		fmt.Printf("dataset ready in %v: %d optimal parameters, %d train / %d test graphs\n\n",
			time.Since(start).Round(time.Millisecond), env.Data.NumParams(),
			len(env.TrainIDs), len(env.TestIDs))
		if cfg.ModelOut != "" {
			if err := env.Predictor.SaveFile(cfg.ModelOut); err != nil {
				return err
			}
			fmt.Printf("trained model written to %s (target depths %v)\n\n",
				cfg.ModelOut, env.Predictor.TargetDepths())
		}
	}
	if cfg.ModelOut != "" && env == nil {
		return fmt.Errorf("-model-out needs an experiment that trains the predictor (e.g. datagen)")
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	for _, e := range todo {
		if name == "all" && env.Scale.MaxDepth < e.allDepth {
			continue
		}
		res, err := e.run(env, scale)
		if err != nil {
			return err
		}
		if res == nil {
			continue
		}
		fmt.Println(res)
		if cfg.CSVDir != "" {
			path := filepath.Join(cfg.CSVDir, experiments.CSVName(e.id))
			if err := os.WriteFile(path, []byte(res.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func printDatagenSummary(env *experiments.Env) {
	data := env.Data
	fmt.Printf("dataset summary (cf. Sec. III-A):\n")
	fmt.Printf("  graphs: %d (n=%d, Erdős–Rényi p=%.2f), depths 1..%d, %d starts each\n",
		len(data.Problems), data.Config.Nodes, data.Config.EdgeProb,
		data.Config.MaxDepth, data.Config.Starts)
	fmt.Printf("  optimal parameters: %d (paper: 13,860 at full scale)\n", data.NumParams())
	for d := 1; d <= data.Config.MaxDepth; d++ {
		var ars, fcs []float64
		for g := range data.Problems {
			rec := data.Record(g, d)
			ars = append(ars, rec.AR)
			fcs = append(fcs, rec.MeanFev)
		}
		fmt.Printf("  depth %d: AR %s\n           FC/start %s\n",
			d, stats.Summarize(ars), stats.Summarize(fcs))
	}
	fmt.Println()
}
