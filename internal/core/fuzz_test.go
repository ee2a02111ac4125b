package core

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

// The decoders of files from disk: whatever the bytes, Load and
// LoadPredictor return or refuse, and never panic or hang; a predictor
// that loads predicts finite, in-domain angles or an error. The seed
// corpus is the malformed inputs of the rejection tests, the overflowing
// GPR file of TestPredictRefusesNonFiniteOutput and, under
// testdata/fuzz, one valid file per dataset schema, a valid GPR
// predictor and one refused predictor file per other model family.

// fuzzMaxQubits keeps one execution in milliseconds: Load brute-forces
// the optimum of every instance it accepts, 2^n steps each.
const fuzzMaxQubits = 12

// tooWide reports whether a dataset file asks for a register Load
// accepts but the fuzzer cannot afford: wider than fuzzMaxQubits (an
// upper bound per family, read without compiling) and within
// problem.BruteForceMaxQubits. Past that limit Load must refuse before
// it allocates, which is part of what is fuzzed.
func tooWide(raw []byte) bool {
	var probe struct {
		Specs []struct {
			Nodes, Vars, Colors int
			Numbers, Returns    []float64
			Clauses             [][]int
		}
	}
	if json.Unmarshal(raw, &probe) != nil {
		return false
	}
	slow := func(qubits int) bool { return qubits > fuzzMaxQubits && qubits <= problem.BruteForceMaxQubits }
	wide := false
	for _, s := range probe.Specs {
		aux := 0 // maxksat: one auxiliary qubit per three-literal clause
		for _, cl := range s.Clauses {
			if len(cl) >= 3 {
				aux++
			}
		}
		wide = wide || slow(s.Nodes) || slow(s.Nodes*s.Colors) || slow(s.Vars+aux) ||
			slow(len(s.Numbers)) || slow(len(s.Returns))
	}
	return wide
}

func FuzzLoad(f *testing.F) {
	for _, blob := range malformedDatasets {
		f.Add([]byte(blob))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if tooWide(raw) {
			t.Skip()
		}
		data, err := Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if len(data.Problems) != len(data.Records) {
			t.Fatalf("loaded %d problems but %d record rows", len(data.Problems), len(data.Records))
		}
		data.NumParams()
	})
}

func FuzzLoadPredictor(f *testing.F) {
	for _, blob := range malformedPredictors {
		f.Add([]byte(blob))
	}
	nonFinite, err := os.ReadFile("testdata/nonfinite_predictor.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(nonFinite)
	f.Fuzz(func(t *testing.T, raw []byte) {
		pred, err := LoadPredictor(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// A predictor that loads answers every depth it lists, for features
		// inside the optimization domain, with an error or with angles in
		// [0, GammaMax] × [0, BetaMax] (a NaN fails both comparisons).
		for _, depth := range pred.TargetDepths() {
			got, err := pred.Predict(Features{Gamma1: 1.1, Beta1: 0.4, TargetDepth: depth})
			if err != nil {
				continue
			}
			if got.Depth() != depth {
				t.Fatalf("depth-%d bank predicted %d stages", depth, got.Depth())
			}
			for i := range got.Gamma {
				if !(got.Gamma[i] >= 0 && got.Gamma[i] <= qaoa.GammaMax && got.Beta[i] >= 0 && got.Beta[i] <= qaoa.BetaMax) {
					t.Fatalf("depth-%d bank predicted (γ, β) = (%v, %v) at stage %d", depth, got.Gamma[i], got.Beta[i], i)
				}
			}
		}
	})
}
