package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"qaoaml/internal/problem"
)

// Every non-MaxCut family must round-trip through schema v2: identical
// records, identical canonical fingerprints (the instance really is
// the same one), identical exact optima.
func TestSaveLoadV2AllFamilies(t *testing.T) {
	for _, family := range problem.Families() {
		if family == problem.FamilyMaxCut {
			continue // v1 path, covered by TestSaveLoadRoundTrip
		}
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

// MaxCut datasets must keep writing schema v1 — the byte format every
// existing dataset file uses — with no v2 fields leaking in.
func TestSaveMaxCutStaysV1(t *testing.T) {
	data, err := GenerateCtx(context.Background(), DataGenConfig{
		NumGraphs: 2, Nodes: 6, EdgeProb: 0.5,
		MaxDepth: 2, Starts: 1, Tol: 1e-6, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := data.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &probe); err != nil {
		t.Fatal(err)
	}
	if string(probe["version"]) != "1" {
		t.Fatalf("maxcut dataset wrote version %s, want 1", probe["version"])
	}
	if _, leaked := probe["specs"]; leaked {
		t.Fatal("v2 specs field leaked into a v1 maxcut file")
	}
	if _, ok := probe["graphs"]; !ok {
		t.Fatal("v1 graphs field missing")
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
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
