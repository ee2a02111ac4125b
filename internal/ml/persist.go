package ml

import (
	"fmt"

	"qaoaml/internal/linalg"
)

// Model persistence: JSON-serializable snapshots of trained GPR banks,
// which core embeds in its versioned predictor files. GPR is the one
// family a model file holds — every predictor a binary saves is GPR; the
// other three families are trained in memory for the Sec. III-C
// comparison — and a state of any other family is refused by name. The
// serialized state is what Predict reads — standardizers, training
// points, dual coefficients, hyperparameters — and no Cholesky factor,
// so a loaded model's Predict is bit-identical to the original's (same
// float operations in the same order), which the model registry in
// internal/server relies on for cache coherence. A state comes from a
// file, so decoding checks every shape Predict relies on: a bank that
// loads predicts without panicking on any input of its width.

// modelState is one output's model: its family and the GPR payload.
type modelState struct {
	Kind string    `json:"kind"` // Name() of the model: GPR
	GPR  *gprState `json:"gpr,omitempty"`
}

type standardizerState struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

type gprState struct {
	XTrain [][]float64       `json:"x_train"`
	Alpha  []float64         `json:"alpha"`
	XScale standardizerState `json:"x_scale"`
	YMean  float64           `json:"y_mean"`
	YStd   float64           `json:"y_std"`
	Ell    float64           `json:"ell"`
	Sf2    float64           `json:"sf2"`
	Sn2    float64           `json:"sn2"`
	Sl2    float64           `json:"sl2"`
	LogML  float64           `json:"log_ml"`
}

func encodeRegressor(r Regressor) (modelState, error) {
	g, ok := r.(*GPR)
	if !ok {
		return modelState{}, fmt.Errorf("ml: cannot save a %s model: a model file holds GPR banks only", r.Name())
	}
	if !g.fitted {
		return modelState{}, fmt.Errorf("ml: cannot save unfitted %s model", g.Name())
	}
	return modelState{Kind: g.Name(), GPR: &gprState{
		XTrain: cloneRows(g.xTrain),
		Alpha:  append([]float64(nil), g.alpha...),
		XScale: encodeStandardizer(g.xScale),
		YMean:  g.yMean, YStd: g.yStd,
		Ell: g.ell, Sf2: g.sf2, Sn2: g.sn2, Sl2: g.sl2,
		LogML: g.logML,
	}}, nil
}

// decodeRegressor rebuilds one GPR and reports how many features its
// Predict takes: the standardizer's, which every stored training point
// must share.
func decodeRegressor(st modelState) (*GPR, int, error) {
	if st.Kind != "GPR" {
		return nil, 0, fmt.Errorf("ml: model family %q refused: a model file holds GPR banks only", st.Kind)
	}
	s := st.GPR
	if s == nil {
		return nil, 0, fmt.Errorf("ml: GPR state has no payload")
	}
	dim := len(s.XScale.Mean)
	if len(s.XScale.Std) != dim {
		return nil, 0, fmt.Errorf("ml: GPR standardizer has %d means but %d scales", dim, len(s.XScale.Std))
	}
	for i, row := range s.XTrain {
		if len(row) != dim {
			return nil, 0, fmt.Errorf("ml: GPR training point %d has %d features, the standardizer %d", i, len(row), dim)
		}
	}
	if len(s.Alpha) != len(s.XTrain) {
		return nil, 0, fmt.Errorf("ml: GPR state shapes disagree (%d points, %d alpha)", len(s.XTrain), len(s.Alpha))
	}
	return &GPR{
		xTrain: cloneRows(s.XTrain),
		alpha:  append(linalg.Vector(nil), s.Alpha...),
		xScale: decodeStandardizer(s.XScale),
		yMean:  s.YMean, yStd: s.YStd,
		ell: s.Ell, sf2: s.Sf2, sn2: s.Sn2, sl2: s.Sl2,
		logML:  s.LogML,
		fitted: true,
	}, dim, nil
}

func encodeStandardizer(s *Standardizer) standardizerState {
	return standardizerState{
		Mean: append([]float64(nil), s.Mean...),
		Std:  append([]float64(nil), s.Std...),
	}
}

func decodeStandardizer(st standardizerState) *Standardizer {
	return &Standardizer{
		Mean: append([]float64(nil), st.Mean...),
		Std:  append([]float64(nil), st.Std...),
	}
}

// MultiOutputState is the JSON-serializable state of a trained GPR
// MultiOutput bank; core embeds it in predictor files.
type MultiOutputState struct {
	Models []modelState `json:"models"`
}

// State snapshots the trained bank. It errors before Fit and on a bank
// of any family but GPR.
func (m *MultiOutput) State() (MultiOutputState, error) {
	if len(m.models) == 0 {
		return MultiOutputState{}, fmt.Errorf("ml: cannot save unfitted multi-output bank")
	}
	var st MultiOutputState
	for j, mod := range m.models {
		ms, err := encodeRegressor(mod)
		if err != nil {
			return MultiOutputState{}, fmt.Errorf("ml: output %d: %w", j, err)
		}
		st.Models = append(st.Models, ms)
	}
	return st, nil
}

// MultiOutputFromState rebuilds a trained GPR bank from its snapshot.
// Every model must be a GPR taking the same number of features (Inputs).
func MultiOutputFromState(st MultiOutputState) (*MultiOutput, error) {
	if len(st.Models) == 0 {
		return nil, fmt.Errorf("ml: multi-output state has no models")
	}
	bank := &MultiOutput{}
	for j, ms := range st.Models {
		mod, inputs, err := decodeRegressor(ms)
		if err != nil {
			return nil, fmt.Errorf("ml: output %d: %w", j, err)
		}
		if j > 0 && inputs != bank.inputs {
			return nil, fmt.Errorf("ml: output %d takes %d features, output 0 takes %d", j, inputs, bank.inputs)
		}
		bank.inputs = inputs
		bank.models = append(bank.models, mod)
	}
	return bank, nil
}
