package core

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	data := testData(t)
	var buf bytes.Buffer
	if err := data.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Problems) != len(data.Problems) {
		t.Fatalf("graphs: %d != %d", len(loaded.Problems), len(data.Problems))
	}
	if loaded.Config != persistedConfig(data.Config) {
		t.Errorf("config mismatch: %+v vs %+v", loaded.Config, data.Config)
	}
	for g := range data.Problems {
		if loaded.Problems[g].Graph.String() != data.Problems[g].Graph.String() {
			t.Fatalf("graph %d differs after round trip", g)
		}
		if loaded.Problems[g].OptValue != data.Problems[g].OptValue {
			t.Fatalf("graph %d optimum differs", g)
		}
		for d := 1; d <= data.Config.MaxDepth; d++ {
			a, b := data.Record(g, d), loaded.Record(g, d)
			if a.NegF != b.NegF || a.AR != b.AR || a.NFev != b.NFev {
				t.Fatalf("record (%d, %d) differs: %+v vs %+v", g, d, a, b)
			}
			for i := range a.Params.Gamma {
				if a.Params.Gamma[i] != b.Params.Gamma[i] || a.Params.Beta[i] != b.Params.Beta[i] {
					t.Fatalf("params (%d, %d) differ", g, d)
				}
			}
		}
	}
	// A predictor trained on the loaded dataset behaves identically.
	train, _ := loaded.SplitIndices(0.5, 1)
	pred := NewPredictor(nil)
	if err := pred.Train(loaded, train); err != nil {
		t.Fatal(err)
	}
}

// persistedConfig strips the runtime-only fields (Optimizer, Workers,
// Recorder) that Save intentionally drops.
func persistedConfig(c DataGenConfig) DataGenConfig {
	c.Optimizer = nil
	c.Workers = 0
	c.Recorder = nil
	return c
}

func TestSaveLoadFile(t *testing.T) {
	data := testData(t)
	path := filepath.Join(t.TempDir(), "dataset.json")
	if err := data.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumParams() != data.NumParams() {
		t.Errorf("NumParams %d != %d", loaded.NumParams(), data.NumParams())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 1, "graphs": [[[0,1]]], "records": []}`)); err == nil {
		t.Error("mismatched graphs/records accepted")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// malformedDatasets are files Load must refuse. All but "one node" and
// "short weights" used to crash their reader: Load handed sizes and
// endpoints straight to graph.New / AddWeightedEdge, which panic, and
// allocated for a huge register before qaoa.New could refuse it. They
// double as fuzz seeds.
var malformedDatasets = map[string]string{
	"v1 endpoint out of range":   `{"version":1,"config":{"max_depth":1},"nodes":2,"graphs":[[[0,5]]],"records":[[]]}`,
	"v1 negative endpoint":       `{"version":1,"config":{"max_depth":1},"nodes":2,"graphs":[[[-1,1]]],"records":[[]]}`,
	"v1 negative nodes":          `{"version":1,"config":{"max_depth":1},"nodes":-1,"graphs":[[[0,5]]],"records":[[]]}`,
	"v1 one node":                `{"version":1,"config":{"max_depth":1},"nodes":1,"graphs":[[]],"records":[[]]}`,
	"v1 huge nodes":              `{"version":1,"config":{"max_depth":1},"nodes":1000000000,"graphs":[[[0,1]]],"records":[[]]}`,
	"v2 endpoint out of range":   `{"version":2,"config":{"max_depth":1},"specs":[{"family":"maxcut","nodes":2,"edges":[[0,7]]}],"records":[[]]}`,
	"v2 coloring negative":       `{"version":2,"config":{"max_depth":1},"specs":[{"family":"coloring","nodes":-3,"edges":[[0,1]],"colors":2}],"records":[[]]}`,
	"v2 coloring huge colors":    `{"version":2,"config":{"max_depth":1},"specs":[{"family":"coloring","nodes":4,"edges":[[0,1]],"colors":100000}],"records":[[]]}`,
	"v2 maxksat huge vars":       `{"version":2,"config":{"max_depth":1},"specs":[{"family":"maxksat","vars":1000000000,"clauses":[[1,2]]}],"records":[[]]}`,
	"v2 short weights":           `{"version":2,"config":{"max_depth":1},"specs":[{"family":"maxcut","nodes":3,"edges":[[0,1],[1,2]],"weights":[2]}],"records":[[]]}`,
	"v2 maxksat min-int literal": `{"version":2,"config":{"max_depth":1},"specs":[{"family":"maxksat","vars":3,"clauses":[[-9223372036854775808,1]]}],"records":[[]]}`,
}

func TestLoadRejectsMalformedGraphs(t *testing.T) {
	for name, blob := range malformedDatasets {
		_, err := Load(strings.NewReader(blob))
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.HasPrefix(err.Error(), "core: dataset ") {
			t.Errorf("%s: error %q does not name the dataset entry", name, err)
		}
	}
}
