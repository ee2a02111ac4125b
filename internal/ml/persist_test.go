package ml

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// trainingSet builds a smooth nonlinear regression problem.
func trainingSet(n, dim int, seed int64) (x [][]float64, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.Float64()*4 - 2
		}
		t := math.Sin(row[0]) + 0.5*row[dim-1]*row[dim-1] + 0.1*rng.NormFloat64()
		x = append(x, row)
		y = append(y, t)
	}
	return x, y
}

// throughJSON snapshots a trained bank, encodes the snapshot the way
// core's predictor file does, and rebuilds a bank from the bytes.
func throughJSON(t *testing.T, bank *MultiOutput) *MultiOutput {
	t.Helper()
	st, err := bank.State()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back MultiOutputState
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	loaded, err := MultiOutputFromState(back)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestSaveLoadRoundTripPredictions(t *testing.T) {
	x, y := trainingSet(40, 3, 1)
	probes, _ := trainingSet(25, 3, 2)
	targets := make([][]float64, len(y))
	for i, v := range y {
		targets[i] = []float64{v}
	}

	factories := map[string]func() Regressor{
		"GPR":        func() Regressor { return &GPR{} },
		"GPR+linear": func() Regressor { return &GPR{LinearVar: true} },
	}
	for name, factory := range factories {
		bank := NewMultiOutput(factory)
		if err := bank.Fit(x, targets); err != nil {
			t.Fatalf("%s: fit: %v", name, err)
		}
		loaded := throughJSON(t, bank)
		if loaded.Name() != bank.Name() || loaded.Inputs() != 3 {
			t.Fatalf("%s: loaded %s taking %d features", name, loaded.Name(), loaded.Inputs())
		}
		for i, p := range probes {
			want, got := bank.Predict(p)[0], loaded.Predict(p)[0]
			if want != got {
				t.Fatalf("%s: probe %d prediction drifted: %v != %v (bit-exact required)", name, i, got, want)
			}
		}
	}
	// The other families train but do not save, and say which they are.
	for _, factory := range []func() Regressor{
		func() Regressor { return &Linear{} }, func() Regressor { return &Tree{} }, func() Regressor { return &SVR{} },
	} {
		bank := NewMultiOutput(factory)
		if err := bank.Fit(x, targets); err != nil {
			t.Fatal(err)
		}
		name := factory().Name()
		if _, err := bank.State(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s bank snapshot: err %v, want a refusal naming %s", name, err, name)
		}
	}
}

func TestSaveRejectsUnfitted(t *testing.T) {
	for _, m := range []Regressor{&Linear{}, &Tree{}, &GPR{}, &SVR{}} {
		if _, err := encodeRegressor(m); err == nil {
			t.Errorf("%s: snapshot of an unfitted model succeeded", m.Name())
		}
	}
}

// A state comes from a file: every shape Predict relies on is checked
// when the bank is rebuilt, so what loads cannot panic or loop later.
func TestMultiOutputFromStateRejects(t *testing.T) {
	// gpr is a one-point GPR state of the given width.
	gpr := func(dim int) modelState {
		x := make([]float64, dim)
		sc := standardizerState{Mean: make([]float64, dim), Std: make([]float64, dim)}
		for i := range sc.Std {
			sc.Std[i] = 1
		}
		return modelState{Kind: "GPR", GPR: &gprState{XTrain: [][]float64{x}, Alpha: []float64{1},
			CholL: matrixState{Rows: 1, Cols: 1, Data: []float64{1}}, XScale: sc, YStd: 1, Ell: 1, Sf2: 1}}
	}
	scale3 := standardizerState{Mean: []float64{0, 0, 0}, Std: []float64{1, 1, 1}}
	cases := map[string][]modelState{
		"no models":    nil,
		"payload-free": {{Kind: "GPR"}},
		"mixed widths": {gpr(3), gpr(2)},
		"gpr ragged points": {{Kind: "GPR", GPR: &gprState{XTrain: [][]float64{{1}}, Alpha: []float64{1},
			CholL: matrixState{Rows: 1, Cols: 1, Data: []float64{1}}, XScale: scale3}}},
		"gpr ragged scaler": {{Kind: "GPR", GPR: &gprState{
			XScale: standardizerState{Mean: []float64{0, 0, 0}, Std: []float64{1}}}}},
		"gpr wide factor": {{Kind: "GPR", GPR: &gprState{XTrain: [][]float64{{1, 2, 3}}, Alpha: []float64{1},
			CholL: matrixState{Rows: 1, Cols: 2, Data: []float64{1, 0}}, XScale: scale3}}},
	}
	// A model file holds GPR banks only; any other family is refused by
	// name, with or without a GPR payload.
	for _, family := range []string{"FOREST", "LM", "RTREE", "RSVM", ""} {
		cases["family "+family] = []modelState{{Kind: family, GPR: gpr(3).GPR}}
		cases["GPR then "+family] = []modelState{gpr(3), {Kind: family}}
	}
	for name, models := range cases {
		_, err := MultiOutputFromState(MultiOutputState{Models: models})
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if family, ok := strings.CutPrefix(name, "family "); ok && !strings.Contains(err.Error(), `"`+family+`"`) {
			t.Errorf("%s: err %v does not name the family", name, err)
		}
	}
	// One GPR state of each width loads and predicts.
	bank, err := MultiOutputFromState(MultiOutputState{Models: []modelState{gpr(3), gpr(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if bank.Inputs() != 3 || bank.Outputs() != 2 {
		t.Errorf("loaded bank takes %d features to %d outputs", bank.Inputs(), bank.Outputs())
	}
	if got := bank.Predict([]float64{0, 0, 0})[0]; got != 1 {
		t.Errorf("one-point GPR at its point predicted %v, want 1", got)
	}
}

func TestMultiOutputRoundTrip(t *testing.T) {
	x, y1 := trainingSet(30, 3, 3)
	_, y2 := trainingSet(30, 3, 4)
	y := make([][]float64, len(x))
	for i := range y {
		y[i] = []float64{y1[i], y2[i]}
	}
	bank := NewMultiOutput(func() Regressor { return &GPR{} })
	if err := bank.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	loaded := throughJSON(t, bank)
	if loaded.Outputs() != bank.Outputs() {
		t.Fatalf("outputs %d != %d", loaded.Outputs(), bank.Outputs())
	}
	if loaded.Name() != bank.Name() {
		t.Fatalf("name %q != %q", loaded.Name(), bank.Name())
	}
	probes, _ := trainingSet(10, 3, 5)
	for _, p := range probes {
		want, got := bank.Predict(p), loaded.Predict(p)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("output %d drifted: %v != %v", j, got[j], want[j])
			}
		}
	}
	// An unfitted bank refuses to snapshot.
	if _, err := NewMultiOutput(func() Regressor { return &Linear{} }).State(); err == nil {
		t.Fatal("unfitted bank snapshot succeeded")
	}
}
