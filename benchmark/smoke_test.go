package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestSmoke runs every workload at 1/200 of the benchmark's scale with
// tracing on and checks what a later change must not break: nothing
// fails verification, every metric BENCHMARK.json names is emitted with
// a finite value, and the exact-repeat metrics repeat for one seed and
// move with another. -short substitutes n=14 for the n=20 register.
func TestSmoke(t *testing.T) {
	nproc := min(runtime.NumCPU(), 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nproc))
	bigN := 20
	if testing.Short() {
		bigN = 14
	}
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ladder := &ladderCache{}
	run := func(workload string, seed int64, trace bool) *result {
		t.Helper()
		res, err := runWorkload(runConfig{
			workload: workload, seed: seed, seconds: defaultSeconds / 200.0, trace: trace,
			nproc: nproc, bigN: bigN, setupReps: 1, trainGraphs: 8, outDir: dir, ladder: ladder,
		})
		if err != nil {
			t.Fatalf("%s seed %d: %v", workload, seed, err)
		}
		if res.Truncated {
			t.Errorf("%s seed %d: truncated by the overrun guard", workload, seed)
		}
		if res.Failed != 0 || res.Metrics["fail_share"].Value != 0 {
			t.Errorf("%s seed %d: %d of %d items failed", workload, seed, res.Failed, res.Attempted)
		}
		return res
	}
	finite := func(r *result, src map[string]metric, names []contractMetric) {
		t.Helper()
		for _, cm := range names {
			m, ok := src[cm.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s missing or not finite (%v)", r.Workload, cm.Name, m.Value)
			} else if m.Unit != cm.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", r.Workload, cm.Name, m.Unit, cm.Unit)
			}
		}
	}

	out := &output{Host: readHost(dir)}
	for _, w := range c.Workloads {
		traced := run(w.Name, 1, true)
		out.Workloads = append(out.Workloads, traced)
		finite(traced, traced.Metrics, c.EndToEnd)
		finite(traced, traced.Layers, c.PerLayer)
		if _, err := os.Stat(traced.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", w.Name, err)
		}
		if w.Name == wWhale && !testing.Short() {
			continue // two more multi-second n=20 passes buy nothing the -short run does not check
		}
		again, other := run(w.Name, 1, false), run(w.Name, 2, false)
		for _, name := range []string{"nfev_per_solve", "ar_mean"} {
			if a, b := traced.Metrics[name].Value, again.Metrics[name].Value; a != b {
				t.Errorf("%s: %s differs between two runs of seed 1: %v vs %v", w.Name, name, a, b)
			}
		}
		if traced.Digest != again.Digest {
			t.Errorf("%s: result digest differs between two runs of seed 1", w.Name)
		}
		if traced.Digest == other.Digest || traced.Metrics["ar_mean"].Value == other.Metrics["ar_mean"].Value {
			t.Errorf("%s: seed 2 reproduced seed 1's results; the seed does not reach the inputs", w.Name)
		}
	}

	// The two cold mixes share an op list: the fleet's bit-identity
	// contract says their results are equal.
	var cold, fleet *result
	for _, r := range out.Workloads {
		switch r.Workload {
		case wCold:
			cold = r
		case wFleet:
			fleet = r
		}
	}
	if cold.Digest != fleet.Digest || cold.Metrics["nfev_per_solve"] != fleet.Metrics["nfev_per_solve"] {
		t.Errorf("fleet_cold_mix and serve_cold_mix disagree: digests %.12s vs %.12s", fleet.Digest, cold.Digest)
	}
	if hit := cold.Layers[insituPrefix+"server.cache_hit_rate"].Value; hit != 0 {
		t.Errorf("serve_cold_mix hit the cache (rate %v); its specs must be unique", hit)
	}

	// -check and -compare on what was just produced.
	path := filepath.Join(dir, "result.json")
	blob, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := checkFile(path, filepath.Join("..", "BENCHMARK.json")); code != 0 {
		t.Errorf("-check rejected the smoke output (exit %d)", code)
	}
	if code := compareFiles(path, path); code != 0 {
		t.Errorf("-compare of a file with itself exited %d", code)
	}
	worse := *out
	slow := *out.Workloads[0]
	slow.Metrics = map[string]metric{}
	for k, m := range out.Workloads[0].Metrics {
		slow.Metrics[k] = m
	}
	m := slow.Metrics["solves_per_s"]
	m.Value /= 2
	slow.Metrics["solves_per_s"] = m
	worse.Workloads = append([]*result{&slow}, out.Workloads[1:]...)
	if code := compareOutputs(out, &worse); code == 0 {
		t.Error("-compare accepted a halved solves_per_s")
	}
}

// TestContractMatchesSchema keeps BENCHMARK.json and schema.go from
// drifting apart: the file is `go run ./benchmark -contract`.
func TestContractMatchesSchema(t *testing.T) {
	got, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := contract(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the schema; regenerate it with `go run ./benchmark -contract > BENCHMARK.json`")
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics; the contract allows 128", n)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "paper_n8", "--seed", "3", "--seconds", "12", "--trace", "1"})
	want := []string{"--workload", "paper_n8", "--seed", "3", "--seconds", "12", "--trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
	if got := normalizeArgs([]string{"-trace", "-seed", "3"}); !reflect.DeepEqual(got, []string{"-trace", "-seed", "3"}) {
		t.Errorf("bare -trace was rewritten: %v", got)
	}
}

// TestHostClockRefSeconds feeds the host clock a synthetic timeline:
// half a second at reference speed, then half a second at half speed,
// sampled every 100 ms so that every other 50 ms step is interpolated.
func TestHostClockRefSeconds(t *testing.T) {
	epoch := time.Now()
	h := &hostClock{epoch: epoch}
	for ms := 0; ms <= 1000; ms += 100 {
		ns := calRefNs
		if ms > 500 {
			ns *= 2
		}
		h.at, h.ns = append(h.at, time.Duration(ms)*time.Millisecond), append(h.ns, ns)
	}
	ref, samples := h.refSeconds(epoch, epoch.Add(time.Second))
	// 0.55 s at speed 1, one 50 ms step at 1/1.5, 0.4 s at speed 1/2.
	if want := 0.55 + 0.05/1.5 + 0.2; samples != 11 || math.Abs(ref-want) > 1e-9 {
		t.Errorf("refSeconds = %v from %d samples, want %v from 11", ref, samples, want)
	}
}
