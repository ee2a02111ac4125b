package ml

import (
	"encoding/json"
	"math"
	"math/rand"
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
		"LM":         func() Regressor { return &Linear{} },
		"RTREE":      func() Regressor { return &Tree{} },
		"GPR":        func() Regressor { return &GPR{} },
		"GPR+linear": func() Regressor { return &GPR{LinearVar: -1} },
		"RSVM":       func() Regressor { return &SVR{} },
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
	leaf := func(v float64) flatNode { return flatNode{Value: v, Left: -1, Right: -1} }
	tree := func(dim int, nodes ...flatNode) modelState {
		return modelState{Kind: "RTREE", Tree: &treeState{Dim: dim, Nodes: nodes}}
	}
	linear := func(coef ...float64) modelState {
		return modelState{Kind: "LM", Linear: &linearState{Coef: coef}}
	}
	scale3 := standardizerState{Mean: []float64{0, 0, 0}, Std: []float64{1, 1, 1}}
	cases := map[string][]modelState{
		"no models":        nil,
		"unknown family":   {{Kind: "FOREST"}},
		"payload-free":     {{Kind: "LM"}},
		"empty tree":       {tree(3)},
		"one child":        {tree(3, flatNode{Left: 1, Right: -1}, leaf(1))},
		"child past end":   {tree(3, flatNode{Left: 1, Right: 5}, leaf(1))},
		"self loop":        {tree(3, flatNode{Left: 0, Right: 0})},
		"children cycle":   {tree(3, flatNode{Left: 1, Right: 1}, flatNode{Left: 0, Right: 0})},
		"feature past dim": {tree(3, flatNode{Feature: 3, Left: 1, Right: 2}, leaf(1), leaf(2))},
		"negative feature": {tree(3, flatNode{Feature: -1, Left: 1, Right: 2}, leaf(1), leaf(2))},
		"mixed widths":     {linear(1, 2, 3), linear(1, 2)},
		"svr ragged points": {{Kind: "RSVM", SVR: &svrState{LengthScale: 1,
			XTrain: [][]float64{{1, 2}}, Beta: []float64{1}, XScale: scale3}}},
		"svr ragged scaler": {{Kind: "RSVM", SVR: &svrState{LengthScale: 1,
			XScale: standardizerState{Mean: []float64{0, 0, 0}, Std: []float64{1}}}}},
		"gpr ragged points": {{Kind: "GPR", GPR: &gprState{XTrain: [][]float64{{1}}, Alpha: []float64{1},
			CholL: matrixState{Rows: 1, Cols: 1, Data: []float64{1}}, XScale: scale3}}},
		"gpr wide factor": {{Kind: "GPR", GPR: &gprState{XTrain: [][]float64{{1, 2, 3}}, Alpha: []float64{1},
			CholL: matrixState{Rows: 1, Cols: 2, Data: []float64{1, 0}}, XScale: scale3}}},
	}
	for name, models := range cases {
		if _, err := MultiOutputFromState(MultiOutputState{Models: models}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The same tree in preorder loads and predicts.
	ok := tree(3, flatNode{Feature: 2, Threshold: 0.5, Left: 1, Right: 2}, leaf(1), leaf(2))
	bank, err := MultiOutputFromState(MultiOutputState{Models: []modelState{ok}})
	if err != nil {
		t.Fatal(err)
	}
	if got := bank.Predict([]float64{0, 0, 1})[0]; got != 2 {
		t.Errorf("preorder tree predicted %v, want 2", got)
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
