package qaoaml

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// benchDigest is what TestBenchDigests holds fixed for one workload.
type benchDigest struct {
	ResultDigest string  `json:"result_digest"`
	NFevPerSolve float64 `json:"nfev_per_solve"`
	ARMean       float64 `json:"ar_mean"`
}

// TestBenchDigests builds ./benchmark, runs every workload at -seconds 1
// and compares each workload's result_digest, nfev_per_solve and ar_mean
// with testdata/bench_digests.json. The benchmark's op lists are fixed
// by seed and scale, so these values are a function of the program: a
// change that moves one on purpose updates the file and lists old → new
// in CHANGES.md; any other move is a bug in the program, not in the
// file. A truncated workload or one with failed ops fails with that
// reason; its digest is not compared. The test skips under -race (too
// slow) and off amd64, where the digests were never recorded.
func TestBenchDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the benchmark; CI runs this test in a non-race step")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	blob, err := os.ReadFile(filepath.Join("testdata", "bench_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]benchDigest
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, "./benchmark").CombinedOutput(); err != nil {
		t.Fatalf("go build ./benchmark: %v\n%s", err, out)
	}
	resultPath := filepath.Join(dir, "result.json")
	// The benchmark exits 1 when an op fails but still writes its result
	// file, so the exit status is reported only if there is no file.
	log, runErr := exec.Command(bin, "-workload", "all", "-seconds", "1", "-out", resultPath).CombinedOutput()
	if blob, err = os.ReadFile(resultPath); err != nil {
		t.Fatalf("benchmark wrote no result (%v):\n%s", runErr, log)
	}
	var got struct {
		Workloads []struct {
			Workload     string `json:"workload"`
			Attempted    int    `json:"attempted"`
			Failed       int    `json:"failed"`
			Truncated    bool   `json:"truncated"`
			ResultDigest string `json:"result_digest"`
			Metrics      map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for _, w := range got.Workloads {
		seen[w.Workload] = true
		exp, ok := want[w.Workload]
		switch {
		case !ok:
			t.Errorf("%s: not in testdata/bench_digests.json", w.Workload)
		case w.Truncated:
			t.Errorf("%s: truncated by the benchmark's overrun guard, so its digest covers fewer ops", w.Workload)
		case w.Failed > 0:
			t.Errorf("%s: %d of %d ops failed", w.Workload, w.Failed, w.Attempted)
		default:
			res := benchDigest{w.ResultDigest, w.Metrics["nfev_per_solve"].Value, w.Metrics["ar_mean"].Value}
			if res != exp {
				t.Errorf("%s moved:\n got  %+v\n want %+v", w.Workload, res, exp)
			}
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: the benchmark ran no such workload", name)
		}
	}
}
