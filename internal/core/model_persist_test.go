package core

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

var persistEnv struct {
	once sync.Once
	data *Data
	pred *Predictor
	err  error
}

// trainedPredictor generates a tiny dataset and trains a GPR predictor
// once for the persistence tests.
func trainedPredictor(t *testing.T) (*Data, *Predictor) {
	t.Helper()
	persistEnv.once.Do(func() {
		data, err := GenerateCtx(context.Background(), DataGenConfig{
			NumGraphs: 8, Nodes: 6, EdgeProb: 0.5,
			MaxDepth: 3, Starts: 2, Tol: 1e-6, Seed: 11,
		})
		if err != nil {
			persistEnv.err = err
			return
		}
		pred := NewPredictor(nil)
		if err := pred.Train(data, []int{0, 1, 2, 3, 4}); err != nil {
			persistEnv.err = err
			return
		}
		persistEnv.data, persistEnv.pred = data, pred
	})
	if persistEnv.err != nil {
		t.Fatal(persistEnv.err)
	}
	return persistEnv.data, persistEnv.pred
}

func TestPredictorSaveLoadRoundTrip(t *testing.T) {
	data, pred := trainedPredictor(t)

	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if got, want := loaded.TargetDepths(), pred.TargetDepths(); len(got) != len(want) {
		t.Fatalf("target depths %v != %v", got, want)
	}
	// Predictions from the loaded banks must be bit-identical on every
	// held-out feature vector.
	for g := 5; g < 8; g++ {
		p1 := data.Record(g, 1).Params
		for depth := 2; depth <= 3; depth++ {
			f := FeaturesFromParams(p1, depth)
			want, err := pred.Predict(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Predict(f)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Gamma {
				if want.Gamma[i] != got.Gamma[i] || want.Beta[i] != got.Beta[i] {
					t.Fatalf("graph %d depth %d: prediction drifted: %v/%v != %v/%v",
						g, depth, got.Gamma, got.Beta, want.Gamma, want.Beta)
				}
			}
		}
	}
}

func TestPredictorSaveFileRoundTrip(t *testing.T) {
	_, pred := trainedPredictor(t)
	path := t.TempDir() + "/model.json"
	if err := pred.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPredictorFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorSaveUntrained(t *testing.T) {
	var buf bytes.Buffer
	if err := NewPredictor(nil).Save(&buf); err == nil {
		t.Fatal("saving untrained predictor succeeded")
	}
}

// bankOf repeats one model state as a depth-2 bank (4 outputs).
func bankOf(family, model string) string {
	return `{"version":1,"family":"` + family + `","banks":{"2":{"models":[` +
		strings.TrimSuffix(strings.Repeat(model+",", 4), ",") + `]}}}`
}

// malformedPredictors are files LoadPredictor must refuse. A file holds
// GPR banks only: the LM, RTREE and RSVM rows are files of those
// families (a cyclic tree, a linear bank of five features, kernel points
// narrower than their scaler) and are refused for the family alone, as
// is an RTREE model inside a GPR file. They double as fuzz seeds.
var malformedPredictors = map[string]string{
	"bad version":   `{"version":9,"family":"GPR","banks":{}}`,
	"no banks":      `{"version":1,"family":"GPR","banks":{}}`,
	"bad family":    `{"version":1,"family":"NOPE","banks":{"2":{"models":[]}}}`,
	"forest family": `{"version":1,"family":"FOREST","banks":{"2":{"models":[]}}}`,
	"bad depth key": `{"version":1,"family":"GPR","banks":{"x":{"models":[]}}}`,
	"garbage":       `{{`,
	"RTREE family refused": bankOf("RTREE", `{"kind":"RTREE","tree":{"dim":3,"nodes":[`+
		`{"f":0,"t":0,"v":0,"l":1,"r":1},{"f":0,"t":0,"v":0,"l":0,"r":0}]}}`),
	"RTREE model in a GPR file refused": bankOf("GPR", `{"kind":"RTREE","tree":{"dim":3,"nodes":[`+
		`{"f":7,"t":0,"v":0,"l":1,"r":2},{"f":0,"t":0,"v":1,"l":-1,"r":-1},{"f":0,"t":0,"v":2,"l":-1,"r":-1}]}}`),
	"LM family refused": bankOf("LM", `{"kind":"LM","linear":{"coef":[1,2,3,4,5],"intercept":0}}`),
	"RSVM family refused": bankOf("RSVM", `{"kind":"RSVM","svr":{"length_scale":1,`+
		`"x_train":[[1,2]],"beta":[1],"x_scale":{"mean":[0,0,0],"std":[1,1,1]},"y_mean":0,"y_std":1}}`),
	"GPR bank of five features": bankOf("GPR", `{"kind":"GPR","gpr":{"x_train":[[1,2,3,4,5]],"alpha":[1],`+
		`"chol_l":{"rows":1,"cols":1,"data":[1]},"x_scale":{"mean":[0,0,0,0,0],"std":[1,1,1,1,1]},`+
		`"y_mean":0,"y_std":1,"ell":1,"sf2":1,"sn2":0,"sl2":0,"log_ml":0}}`),
}

func TestLoadPredictorRejectsMalformed(t *testing.T) {
	for name, blob := range malformedPredictors {
		_, err := LoadPredictor(strings.NewReader(blob))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		// A refused family is named in the error.
		if family, ok := strings.CutSuffix(name, " family refused"); ok && !strings.Contains(err.Error(), `"`+family+`"`) {
			t.Errorf("%s: err %v does not name the family", name, err)
		}
	}
}

// A GPR bank that loads can still overflow: with σ_f² = ℓ = 1e308 and
// α = ±1e308 its two terms are ±Inf and their sum NaN, which clipping
// passes through. Predict refuses such an output, so a two-level solve on
// the predictor fails instead of answering NaN angles with a nil error.
func TestPredictRefusesNonFiniteOutput(t *testing.T) {
	pred, err := LoadPredictorFile("testdata/nonfinite_predictor.json")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := pred.Predict(Features{Gamma1: 1.1, Beta1: 0.4, TargetDepth: 2}); err == nil {
		t.Fatalf("Predict = %v with a nil error", got)
	}
	data, _ := trainedPredictor(t)
	res, err := Solve(context.Background(), data.Problems[0], Options{
		Strategy: StrategyTwoLevel, Depth: 2, Predictor: pred, Rng: rand.New(rand.NewSource(1)),
	})
	if err == nil || len(res.Stages) != 1 {
		t.Fatalf("two-level Solve = %+v, %v; want level 1 and an error", res, err)
	}
}

func TestLoadPredictorChecksBankWidth(t *testing.T) {
	_, pred := trainedPredictor(t)
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Re-key the depth-2 bank (4 outputs) as depth 3 (needs 6).
	blob := buf.String()
	blob = strings.Replace(blob, `"2":`, `"9":`, 1)
	if _, err := LoadPredictor(strings.NewReader(blob)); err == nil {
		t.Fatal("bank width mismatch accepted")
	}
}
