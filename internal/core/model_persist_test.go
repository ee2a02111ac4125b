package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qaoaml/internal/qaoa"
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
// is an RTREE model inside a GPR file. A GPR bank takes (γ1, β1), or
// (γ1, β1, pt) in an old file, so one or five features are refused.
// They double as fuzz seeds.
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
	"GPR bank of one feature": bankOf("GPR", `{"kind":"GPR","gpr":{"x_train":[[1]],"alpha":[1],`+
		`"x_scale":{"mean":[0],"std":[1]},"y_mean":0,"y_std":1,"ell":1,"sf2":1,"sn2":0,"sl2":0,"log_ml":0}}`),
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

// cholRecipe trains the predictor testdata/predictor_chol_l.json holds:
// 6 8-node graphs, depths 1..3, two starts, seed 1, an 80 % split.
func cholRecipe(t *testing.T) *Predictor {
	t.Helper()
	data, err := GenerateCtx(context.Background(), DataGenConfig{
		NumGraphs: 6, Nodes: 8, EdgeProb: 0.5, MaxDepth: 3, Starts: 2, Tol: 1e-6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, _ := data.SplitIndices(0.8, 1)
	pred := NewPredictor(nil)
	if err := pred.Train(data, train); err != nil {
		t.Fatal(err)
	}
	return pred
}

// dropKey returns v, decoded JSON, with every object member named key
// removed.
func dropKey(v any, key string) any {
	switch v := v.(type) {
	case map[string]any:
		delete(v, key)
		for k, e := range v {
			v[k] = dropKey(e, key)
		}
	case []any:
		for i, e := range v {
			v[i] = dropKey(e, key)
		}
	}
	return v
}

// dropPt returns file, a decoded predictor file, with the pt column
// removed from every output: the last value of each training point and
// of the standardizer's mean and std.
func dropPt(file any) any {
	last := func(v any) any { s := v.([]any); return s[:len(s)-1] }
	for _, bank := range file.(map[string]any)["banks"].(map[string]any) {
		for _, m := range bank.(map[string]any)["models"].([]any) {
			g := m.(map[string]any)["gpr"].(map[string]any)
			rows := g["x_train"].([]any)
			for i := range rows {
				rows[i] = last(rows[i])
			}
			scale := g["x_scale"].(map[string]any)
			scale["mean"], scale["std"] = last(scale["mean"]), last(scale["std"])
		}
	}
	return file
}

// testdata/predictor_chol_l.json was saved when every output also
// carried its Cholesky factor ("chol_l") and its banks took pt as a
// third input. It still loads — the decoder ignores the member — and
// through Predict, which feeds its banks (γ1, β1, pt), predicts the bits
// cholRecipe's 2-input predictor does. A file saved now is the old file
// without chol_l and without the pt column, compared decoded.
func TestLoadPredictorWithCholeskyFactor(t *testing.T) {
	old, err := os.ReadFile("testdata/predictor_chol_l.json")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictor(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	pred := cholRecipe(t)
	for depth := 2; depth <= 3; depth++ {
		if in, fresh := loaded.banks[depth].Inputs(), pred.banks[depth].Inputs(); in != 3 || fresh != 2 {
			t.Fatalf("depth %d: the old bank takes %d inputs and the fresh one %d, want 3 and 2", depth, in, fresh)
		}
		for i := 0; i <= 16; i++ {
			for j := 0; j <= 10; j++ {
				f := Features{Gamma1: float64(i) * qaoa.GammaMax / 16, Beta1: float64(j) * qaoa.BetaMax / 10, TargetDepth: depth}
				got, err := loaded.Predict(f)
				if err != nil {
					t.Fatal(err)
				}
				want, err := pred.Predict(f)
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range want.Vector() {
					if math.Float64bits(got.Vector()[k]) != math.Float64bits(v) {
						t.Fatalf("%+v angle %d: loaded file predicts %v, fresh training %v", f, k, got.Vector()[k], v)
					}
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"chol_l"`)) {
		t.Error("a saved predictor holds chol_l")
	}
	var was, now any
	if err := json.Unmarshal(old, &was); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &now); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dropPt(dropKey(was, "chol_l")), now) {
		t.Error("the saved predictor is not the old file without chol_l and the pt column")
	}
	if buf.Len() >= len(old) {
		t.Errorf("saved %d bytes, the old file %d", buf.Len(), len(old))
	}
}
