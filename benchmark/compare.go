package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

func readOutput(path string) (*output, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out output
	if err := json.Unmarshal(blob, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads", path)
	}
	return &out, nil
}

// worsening is how far b is on the wrong side of a, in the scale the
// metric's bound is written in: percent of a, or for fc_reduction_pct
// (a percentage already) absolute points.
func worsening(d metricDef, a, b float64) (w float64, scale string) {
	diff := b - a
	if d.higher {
		diff = a - b
	}
	switch {
	case d.name == "fc_reduction_pct":
		return diff, "pt"
	case a != 0:
		return diff / math.Abs(a), "%"
	case diff > 0:
		return math.Inf(1), "%"
	}
	return 0, "%"
}

// compareFiles prints, per (workload, end-to-end metric), both values,
// the delta and the bound, and returns non-zero when any metric of B is
// worse than A by more than its bound, or when a metric that repeats
// exactly for one (seed, seconds) differs at all between two runs of
// the same (seed, seconds). It is the A/A tool of the issue that added
// it and the regression gate of later ones (A = parent, B = change).
func compareFiles(pathA, pathB string) int {
	a, err := readOutput(pathA)
	if err == nil {
		var b *output
		if b, err = readOutput(pathB); err == nil {
			return compareOutputs(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareOutputs(a, b *output) int {
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		fmt.Printf("warning: hosts differ (%s ×%d vs %s ×%d); timings are not comparable\n",
			a.Host.CPUModel, a.Host.GOMAXPROCS, b.Host.CPUModel, b.Host.GOMAXPROCS)
	}
	byName := map[string]*result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	breaches := 0
	fmt.Printf("%-16s %-18s %14s %14s %9s %8s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Printf("%-16s missing from B\n", ra.Workload)
			breaches++
			continue
		}
		sameInputs := ra.Seed == rb.Seed && ra.Seconds == rb.Seconds && !ra.Truncated && !rb.Truncated
		for _, d := range allEndToEnd() {
			ma, okA := ra.Metrics[d.name]
			mb, okB := rb.Metrics[d.name]
			if !okA && !okB {
				continue
			}
			if okA != okB {
				fmt.Printf("%-16s %-18s present in only one file\n", ra.Workload, d.name)
				breaches++
				continue
			}
			w, scale := worsening(d, ma.Value, mb.Value)
			factor := 100.0
			if scale == "pt" {
				factor = 1
			}
			if d.info {
				fmt.Printf("%-16s %-18s %14.6g %14.6g %+8.2f%-2s  not gated\n", ra.Workload, d.name, ma.Value, mb.Value, factor*w, scale)
				continue
			}
			verdict := ""
			switch {
			case w > d.bound:
				verdict = "  REGRESSION"
				breaches++
			case d.exact && sameInputs && ma.Value != mb.Value:
				verdict = "  EXACT-REPEAT METRIC DIFFERS"
				breaches++
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %+8.2f%-2s %6.2f%-2s%s\n", ra.Workload, d.name, ma.Value, mb.Value, factor*w, scale, factor*d.bound, scale, verdict)
		}
		if sameInputs && ra.Digest != rb.Digest {
			fmt.Printf("%-16s result digests differ for the same seed  REGRESSION\n", ra.Workload)
			breaches++
		}
	}
	if breaches > 0 {
		fmt.Printf("%d breach(es)\n", breaches)
		return 1
	}
	fmt.Println("within bounds")
	return 0
}

// contract renders the schema as BENCHMARK.json: the file at the
// repository root is this function's output, and smoke_test.go fails
// when they differ.
func contract() *benchmarkJSON {
	c := &benchmarkJSON{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWorkload{Name: w.name, Why: w.why})
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	for _, d := range endToEnd {
		bound := d.bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{Name: d.name, Unit: d.unit, Better: better(d), Bound: &bound})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, contractMetric{Name: d.name, Unit: d.unit, Better: better(d)})
	}
	return c
}

// benchmarkJSON is the root contract file.
type benchmarkJSON struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

func hasNote(r *result, prefix string) bool {
	for _, n := range r.Notes {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

func readContract(path string) (*benchmarkJSON, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c benchmarkJSON
	if err := json.Unmarshal(blob, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// checkFile validates a result file against the contract file
// (BENCHMARK.json in the working directory): known workloads, every
// named end-to-end metric present, finite and in the named unit,
// percentile sample counts honest, every named per-layer metric present
// on traced results, nothing failed, and equal digests for the two cold
// mixes when both ran from one seed.
func checkFile(path, contractPath string) int {
	out, err := readOutput(path)
	var c *benchmarkJSON
	if err == nil {
		c, err = readContract(contractPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	known := map[string]bool{}
	for _, w := range c.Workloads {
		known[w.Name] = true
	}
	checkMetric := func(r *result, src map[string]metric, cm contractMetric) {
		m, ok := src[cm.Name]
		switch {
		case !ok:
			bad("%s: %s missing", r.Workload, cm.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			bad("%s: %s is not finite", r.Workload, cm.Name)
		case m.Unit != cm.Unit:
			bad("%s: %s has unit %q, BENCHMARK.json says %q", r.Workload, cm.Name, m.Unit, cm.Unit)
		}
	}
	digests := map[string]*result{}
	for _, r := range out.Workloads {
		if !known[r.Workload] {
			bad("%s: not a workload of BENCHMARK.json", r.Workload)
			continue
		}
		digests[r.Workload] = r
		if r.Failed > 0 || r.Attempted < 1 {
			bad("%s: attempted %d, failed %d", r.Workload, r.Attempted, r.Failed)
		}
		for _, cm := range c.EndToEnd {
			checkMetric(r, r.Metrics, cm)
		}
		if n := r.Metrics["solve_p50_ms"].N; n < 1 {
			bad("%s: solve_p50_ms has no samples", r.Workload)
		} else if q, ok := tailPercentile(n); (!ok || q < 0.95) && !hasNote(r, p95Note) {
			bad("%s: solve_p95_ms from %d samples without the note saying so", r.Workload, n)
		}
		if r.Layers != nil {
			for _, cm := range c.PerLayer {
				checkMetric(r, r.Layers, cm)
			}
		}
	}
	if cold, fleet := digests[wCold], digests[wFleet]; cold != nil && fleet != nil &&
		cold.Seed == fleet.Seed && cold.Seconds == fleet.Seconds && !cold.Truncated && !fleet.Truncated &&
		cold.Digest != fleet.Digest {
		bad("%s and %s ran the same op list but their result digests differ (%.12s vs %.12s)", wCold, wFleet, cold.Digest, fleet.Digest)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		return 1
	}
	fmt.Printf("%s: %d workload(s) conform to BENCHMARK.json\n", path, len(out.Workloads))
	return 0
}
