package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

// Every family must round-trip through schema v2: identical records,
// identical canonical fingerprints (the instance really is the same
// one), identical exact optima.
func TestSaveLoadV2AllFamilies(t *testing.T) {
	for _, family := range problem.Families() {
		t.Run(family, func(t *testing.T) {
			data, err := GenerateCtx(context.Background(), DataGenConfig{
				NumGraphs: 3, Nodes: 6, EdgeProb: 0.5,
				MaxDepth: 2, Starts: 1, Tol: 1e-6, Seed: 11,
				Family: family,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := data.Save(&buf); err != nil {
				t.Fatal(err)
			}
			var probe struct {
				Version int               `json:"version"`
				Specs   []json.RawMessage `json:"specs"`
			}
			if err := json.Unmarshal(buf.Bytes(), &probe); err != nil {
				t.Fatal(err)
			}
			if probe.Version != 2 || len(probe.Specs) != 3 {
				t.Fatalf("wrote version %d with %d specs; want 2 with 3", probe.Version, len(probe.Specs))
			}

			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Config != persistedConfig(data.Config) {
				t.Errorf("config mismatch: %+v vs %+v", loaded.Config, data.Config)
			}
			if !reflect.DeepEqual(loaded.Records, data.Records) {
				t.Fatal("records differ after v2 round trip")
			}
			for i := range data.Problems {
				wantFP, err := data.Problems[i].Spec.Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				gotFP, err := loaded.Problems[i].Spec.Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				if gotFP != wantFP {
					t.Fatalf("instance %d: fingerprint changed across round trip: %s -> %s", i, wantFP, gotFP)
				}
				if loaded.Problems[i].OptValue != data.Problems[i].OptValue {
					t.Fatalf("instance %d: exact optimum differs after round trip", i)
				}
				if loaded.Problems[i].MinScore != data.Problems[i].MinScore {
					t.Fatalf("instance %d: score floor differs after round trip", i)
				}
			}
		})
	}
}

// A weighted MaxCut dataset keeps its weights across Save and Load:
// the same fingerprint, still weighted, the same weighted optimum.
func TestSaveLoadWeightedMaxCut(t *testing.T) {
	g := graph.New(4)
	for i, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}} {
		if err := g.AddWeightedEdge(e[0], e[1], 0.5+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	pb, err := qaoa.New(problem.MaxCut(g))
	if err != nil {
		t.Fatal(err)
	}
	data := &Data{
		Config:   DataGenConfig{NumGraphs: 1, Nodes: 4, MaxDepth: 1, Family: problem.FamilyMaxCut},
		Problems: []*qaoa.Problem{pb},
		Records: [][]Record{{{
			Depth: 1, Params: qaoa.Params{Gamma: []float64{0.5}, Beta: []float64{-0.25}},
		}}},
	}
	var buf bytes.Buffer
	if err := data.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pb.Spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Problems[0]
	if fp, err := got.Spec.Fingerprint(); err != nil || fp != want {
		t.Errorf("fingerprint %s (%v) after round trip, want %s", fp, err, want)
	}
	if !got.Spec.Graph.Weighted() {
		t.Error("graph unweighted after round trip")
	}
	if got.OptValue != pb.OptValue {
		t.Errorf("optimum %v after round trip, want %v", got.OptValue, pb.OptValue)
	}
}

// A v2 file with mismatched specs/records is rejected, as is an
// unknown family tag.
func TestLoadV2Rejects(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte(`{"version": 2, "specs": [{"family": "partition", "numbers": [1,2,3,4]}], "records": []}`))); err == nil {
		t.Error("mismatched specs/records accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"version": 2, "specs": [{"family": "nope"}], "records": [[]]}`))); err == nil {
		t.Error("unknown family accepted")
	}
}
