// Command benchmark is the single instrument every performance claim
// in this repository is measured with: five named workloads, a set of
// end-to-end metrics with regression bounds, and a per-module layer
// ladder taken on a separate traced run. See README.md in this
// directory; BENCHMARK.json at the repository root is its contract.
//
//	go run ./benchmark                                   all workloads
//	go run ./benchmark -workload whale_n20 -seed 7       one workload
//	go run ./benchmark -workload paper_n8 -trace         + traced pass and layer ladder
//	go run ./benchmark -compare A.json B.json            A/A tool and regression gate
//	go run ./benchmark -check benchmark/out/result.json  validate an output file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds. With five workloads
// the driver makes 114 runs inside a 3420 s cap; at 12 a run takes
// 11–17 s here with the host at rest and up to 23 s in its slow mode
// (hostclock.go), which still fits.
const defaultSeconds = 12

type output struct {
	Host      hostInfo  `json:"host"`
	Workloads []*result `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// normalizeArgs lets the boolean -trace also take the driver's
// separate value ("--trace 0", "--trace 1"), which package flag would
// otherwise read as a positional argument and stop parsing at.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", defaultSeconds, "scales every op count: a timed section takes about this long on the reference host")
	trace := fs.Bool("trace", false, "after the untraced pass, repeat the workload traced and run the layer ladder")
	outPath := fs.String("out", filepath.Join("benchmark", "out", "result.json"), "result file")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	check := fs.String("check", "", "validate a result file against BENCHMARK.json")
	printContract := fs.Bool("contract", false, "print BENCHMARK.json as the schema in this directory defines it")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case *check != "":
		return checkFile(*check, "BENCHMARK.json")
	case *printContract:
		blob, _ := json.MarshalIndent(contract(), "", "  ") // strings and numbers only
		fmt.Println(string(blob))
		return 0
	case fs.NArg() > 0:
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %v\n", fs.Args())
		return 2
	case *seconds <= 0 || *seconds > 60:
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be in (0, 60]")
		return 2
	}

	// Pin the process to the cores it will be measured on; client
	// goroutines and connections are sized to the same number.
	nproc := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(nproc)
	outDir := filepath.Dir(*outPath)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	names := workloadNames()
	if *workload != "all" {
		names = []string{*workload}
	}
	out := output{Host: readHost(outDir)}
	printHost(out.Host)
	failed := false
	ladder := &ladderCache{}
	for _, name := range names {
		res, err := runWorkload(runConfig{
			workload: name, seed: *seed, seconds: *seconds, trace: *trace,
			nproc: nproc, bigN: 20, setupReps: 3, trainGraphs: 64, outDir: outDir, ladder: ladder,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		out.Workloads = append(out.Workloads, res)
		printResult(res)
		failed = failed || res.Failed > 0
	}
	printHop(out.Workloads)
	blob, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		err = os.WriteFile(*outPath, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("\nresult file: %s\n", *outPath)
	if len(out.Workloads) == 1 {
		printDriverLine(out.Workloads[0], *trace)
	}
	if failed {
		return 1
	}
	return 0
}

// tracedRun is the second half of a -trace run: the workload again on
// a fresh set-up with spans and decorators recording, the trace file,
// and the ladder.
func tracedRun(cfg runConfig, res *result, untraced *pass) error {
	cfg.tracedPass = true
	e, inst, _, _, err := setUp(cfg)
	if err != nil {
		return err
	}
	tr := newTracer()
	p, err := inst.run(tr)
	inst.close()
	if err != nil {
		return err
	}
	// Same seed, same op list: a traced pass that counts differently
	// than the untraced one means the instrument changed the run.
	if !p.truncated && !untraced.truncated && (p.digest != untraced.digest || p.failed != untraced.failed) {
		return fmt.Errorf("traced pass diverged from the untraced pass (digest %s vs %s, failed %d vs %d)",
			p.digest[:12], untraced.digest[:12], p.failed, untraced.failed)
	}
	if res.TraceFile, err = tr.write(cfg.outDir, cfg.workload); err != nil {
		return err
	}
	res.SelfTimes = tr.selfTimes()

	layers, err := cfg.ladder.get(e, res)
	if err != nil {
		return err
	}
	layers["quantum.amp_bytes_allocated"] = float64(untraced.proc.ampBytes)
	layers["process.peak_rss_mb"] = peakRSSMB()
	layers["process.cpu_util"] = untraced.proc.cpuS / untraced.wall.Seconds() / float64(cfg.nproc)
	layers["process.mallocs_per_solve"] = float64(untraced.proc.mallocs) / float64(untraced.attempted)
	layers["process.gc_pause_ms_total"] = untraced.proc.gcPauseS * 1e3
	rate := func(p *pass) float64 { return float64(p.attempted-p.failed) / p.refS }
	layers["bench.trace_overhead_pct"] = 100 * (1 - rate(p)/rate(untraced))
	for k, v := range p.serve {
		layers[insituPrefix+k] = v
	}

	res.Layers = make(map[string]metric, len(layers))
	for name, v := range layers {
		d, ok := layerDef(name)
		if !ok {
			return fmt.Errorf("ladder produced unknown metric %q", name)
		}
		res.Layers[name] = metric{Value: v, Unit: d.unit}
	}
	for _, d := range perLayer {
		if m, ok := res.Layers[d.name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("ladder did not produce a finite %s", d.name)
		}
	}
	return nil
}

// ladderCache runs the ladder once per process: its probes do not
// depend on the workload, so a run of all five workloads shares one.
type ladderCache struct {
	out   map[string]float64
	notes []string
}

func (c *ladderCache) get(e *env, res *result) (map[string]float64, error) {
	if c.out == nil {
		out, err := runLadder(e, func(s string) { c.notes = append(c.notes, s) })
		if err != nil {
			return nil, err
		}
		c.out = out
	}
	res.Notes = append(res.Notes, c.notes...)
	layers := make(map[string]float64, len(c.out)+32)
	for k, v := range c.out {
		layers[k] = v
	}
	return layers, nil
}

// ---- output ----

func printHost(h hostInfo) {
	fmt.Printf("host: %s | NumCPU %d | GOMAXPROCS %d | LLC %d MiB | %s %s/%s | commit %.12s | temp fs %s\n",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.LLCBytes>>20, h.GoVersion, h.GOOS, h.GOARCH, h.Commit, h.TempFS)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printResult(r *result) {
	fmt.Printf("\n== %s  seed %d  seconds %g  closed loop, %d client(s)  ops %v\n", r.Workload, r.Seed, r.Seconds, r.Clients, r.Ops)
	fmt.Printf("   attempted %d  failed %d  digest %.16s  set-up samples %.3v s\n", r.Attempted, r.Failed, r.Digest, r.SetupS)
	for _, d := range allEndToEnd() {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Printf("   %-18s %14.6g %-6s n=%d\n", d.name, m.Value, m.Unit, m.N)
		}
	}
	for _, k := range sortedKeys(r.Layers) {
		fmt.Printf("   %-42s %14.6g %s\n", k, r.Layers[k].Value, r.Layers[k].Unit)
	}
	if len(r.SelfTimes) > 0 {
		fmt.Printf("   trace %s — self time by span:\n", r.TraceFile)
		for _, s := range r.SelfTimes {
			fmt.Printf("     %-22s n=%-7d total %10.1f ms  self %10.1f ms\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
	}
	for _, n := range r.Notes {
		fmt.Printf("   note: %s\n", n)
	}
}

// printHop is the summary step: with both cold mixes in one output
// (same op list), the difference of their medians is the price of the
// coordinator hop and its fsync'd 202.
func printHop(rs []*result) {
	var cold, fleet *result
	for _, r := range rs {
		switch r.Workload {
		case wCold:
			cold = r
		case wFleet:
			fleet = r
		}
	}
	if cold == nil || fleet == nil {
		return
	}
	fmt.Printf("\ncluster.hop_overhead_ms %.4g ms (fleet_cold_mix solve_p50_ms − serve_cold_mix solve_p50_ms); digests equal: %v\n",
		fleet.Metrics["solve_p50_ms"].Value-cold.Metrics["solve_p50_ms"].Value, cold.Digest == fleet.Digest)
}

// printDriverLine prints the driver's contract line, last on stdout:
// the BENCHMARK.json end-to-end metrics untraced, its per-layer metrics
// traced.
func printDriverLine(r *result, traced bool) {
	defs, src := endToEnd, r.Metrics
	if traced {
		defs, src = perLayer, r.Layers
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": src[d.name].Value, "unit": d.unit}
	}
	blob, _ := json.Marshal(map[string]any{ // plain maps of numbers and strings always encode
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	fmt.Println(string(blob))
}
