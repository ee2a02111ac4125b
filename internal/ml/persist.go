package ml

import (
	"fmt"

	"qaoaml/internal/linalg"
)

// Model persistence: JSON-serializable snapshots of trained regressor
// banks, which core embeds in its versioned predictor files. The
// serialized state is the exact fitted state — standardizers, dual
// coefficients, Cholesky factors — so a loaded model's Predict is
// bit-identical to the original's (same float operations in the same
// order), which the model registry in internal/server relies on for
// cache coherence. A state comes from a file, so decoding checks every
// shape Predict relies on: a bank that loads predicts without panicking
// or looping on any input of its width.

// modelState is a tagged union over the supported model families.
type modelState struct {
	Kind   string       `json:"kind"` // Name() of the model: LM, RTREE, GPR, RSVM
	Linear *linearState `json:"linear,omitempty"`
	Tree   *treeState   `json:"tree,omitempty"`
	GPR    *gprState    `json:"gpr,omitempty"`
	SVR    *svrState    `json:"svr,omitempty"`
}

type linearState struct {
	Coef      []float64 `json:"coef"`
	Intercept float64   `json:"intercept"`
}

// flatNode is one tree node in breadth-agnostic preorder; Left/Right are
// indices into the node slice, -1 for leaves.
type flatNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Value     float64 `json:"v"`
	Left      int     `json:"l"`
	Right     int     `json:"r"`
}

type treeState struct {
	MaxDepth    int        `json:"max_depth,omitempty"`
	MinLeafSize int        `json:"min_leaf_size,omitempty"`
	Dim         int        `json:"dim"`
	Nodes       []flatNode `json:"nodes"`
}

type matrixState struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

type standardizerState struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

type gprState struct {
	XTrain [][]float64       `json:"x_train"`
	Alpha  []float64         `json:"alpha"`
	CholL  matrixState       `json:"chol_l"`
	XScale standardizerState `json:"x_scale"`
	YMean  float64           `json:"y_mean"`
	YStd   float64           `json:"y_std"`
	Ell    float64           `json:"ell"`
	Sf2    float64           `json:"sf2"`
	Sn2    float64           `json:"sn2"`
	Sl2    float64           `json:"sl2"`
	LogML  float64           `json:"log_ml"`
}

type svrState struct {
	C           float64           `json:"c,omitempty"`
	Epsilon     float64           `json:"epsilon,omitempty"`
	LengthScale float64           `json:"length_scale"`
	MaxSweeps   int               `json:"max_sweeps,omitempty"`
	Tol         float64           `json:"tol,omitempty"`
	XTrain      [][]float64       `json:"x_train"`
	Beta        []float64         `json:"beta"`
	XScale      standardizerState `json:"x_scale"`
	YMean       float64           `json:"y_mean"`
	YStd        float64           `json:"y_std"`
}

// FactoryFor returns a fresh-model constructor for a family name as
// reported by Regressor.Name (LM, RTREE, GPR, RSVM).
func FactoryFor(name string) (func() Regressor, bool) {
	switch name {
	case "LM":
		return func() Regressor { return &Linear{} }, true
	case "RTREE":
		return func() Regressor { return &Tree{} }, true
	case "GPR":
		return func() Regressor { return &GPR{} }, true
	case "RSVM":
		return func() Regressor { return &SVR{} }, true
	}
	return nil, false
}

func encodeRegressor(r Regressor) (modelState, error) {
	switch m := r.(type) {
	case *Linear:
		if !m.fitted {
			return modelState{}, fmt.Errorf("ml: cannot save unfitted %s model", m.Name())
		}
		return modelState{Kind: m.Name(), Linear: &linearState{
			Coef:      append([]float64(nil), m.Coef...),
			Intercept: m.Intercept,
		}}, nil
	case *Tree:
		if !m.fitted {
			return modelState{}, fmt.Errorf("ml: cannot save unfitted %s model", m.Name())
		}
		st := encodeTree(m)
		return modelState{Kind: m.Name(), Tree: &st}, nil
	case *GPR:
		if !m.fitted {
			return modelState{}, fmt.Errorf("ml: cannot save unfitted %s model", m.Name())
		}
		return modelState{Kind: m.Name(), GPR: &gprState{
			XTrain: cloneRows(m.xTrain),
			Alpha:  append([]float64(nil), m.alpha...),
			CholL:  encodeMatrix(m.chol.L),
			XScale: encodeStandardizer(m.xScale),
			YMean:  m.yMean, YStd: m.yStd,
			Ell: m.ell, Sf2: m.sf2, Sn2: m.sn2, Sl2: m.sl2,
			LogML: m.logML,
		}}, nil
	case *SVR:
		if !m.fitted {
			return modelState{}, fmt.Errorf("ml: cannot save unfitted %s model", m.Name())
		}
		return modelState{Kind: m.Name(), SVR: &svrState{
			C: m.C, Epsilon: m.Epsilon, LengthScale: m.LengthScale,
			MaxSweeps: m.MaxSweeps, Tol: m.Tol,
			XTrain: cloneRows(m.xTrain),
			Beta:   append([]float64(nil), m.beta...),
			XScale: encodeStandardizer(m.xScale),
			YMean:  m.yMean, YStd: m.yStd,
		}}, nil
	}
	return modelState{}, fmt.Errorf("ml: model %q does not support persistence", r.Name())
}

// decodeRegressor rebuilds one model and reports how many features its
// Predict takes.
func decodeRegressor(st modelState) (Regressor, int, error) {
	switch {
	case st.Linear != nil:
		return &Linear{
			Coef:      append([]float64(nil), st.Linear.Coef...),
			Intercept: st.Linear.Intercept,
			fitted:    true,
		}, len(st.Linear.Coef), nil
	case st.Tree != nil:
		t, err := decodeTree(*st.Tree)
		return t, st.Tree.Dim, err
	case st.GPR != nil:
		s := st.GPR
		dim, err := checkKernelState(s.XTrain, s.XScale)
		if err != nil {
			return nil, 0, fmt.Errorf("ml: GPR state: %w", err)
		}
		l, err := decodeMatrix(s.CholL)
		if err != nil {
			return nil, 0, fmt.Errorf("ml: GPR Cholesky factor: %w", err)
		}
		if len(s.Alpha) != len(s.XTrain) || l.Rows != len(s.XTrain) || l.Cols != l.Rows {
			return nil, 0, fmt.Errorf("ml: GPR state shapes disagree (%d points, %d alpha, %d×%d L)",
				len(s.XTrain), len(s.Alpha), l.Rows, l.Cols)
		}
		return &GPR{
			xTrain: cloneRows(s.XTrain),
			alpha:  append(linalg.Vector(nil), s.Alpha...),
			chol:   &linalg.CholeskyDecomp{L: l},
			xScale: decodeStandardizer(s.XScale),
			yMean:  s.YMean, yStd: s.YStd,
			ell: s.Ell, sf2: s.Sf2, sn2: s.Sn2, sl2: s.Sl2,
			logML:  s.LogML,
			fitted: true,
		}, dim, nil
	case st.SVR != nil:
		s := st.SVR
		dim, err := checkKernelState(s.XTrain, s.XScale)
		if err != nil {
			return nil, 0, fmt.Errorf("ml: SVR state: %w", err)
		}
		if len(s.Beta) != len(s.XTrain) {
			return nil, 0, fmt.Errorf("ml: SVR state shapes disagree (%d points, %d beta)", len(s.XTrain), len(s.Beta))
		}
		if s.LengthScale <= 0 {
			return nil, 0, fmt.Errorf("ml: SVR length scale %v not positive", s.LengthScale)
		}
		return &SVR{
			C: s.C, Epsilon: s.Epsilon, LengthScale: s.LengthScale,
			MaxSweeps: s.MaxSweeps, Tol: s.Tol,
			xTrain: cloneRows(s.XTrain),
			beta:   append([]float64(nil), s.Beta...),
			xScale: decodeStandardizer(s.XScale),
			yMean:  s.YMean, yStd: s.YStd,
			fitted: true,
		}, dim, nil
	}
	return nil, 0, fmt.Errorf("ml: model state of kind %q has no payload", st.Kind)
}

// checkKernelState returns the feature width of a kernel model's state:
// the standardizer's, which every stored training point must share.
func checkKernelState(xTrain [][]float64, sc standardizerState) (int, error) {
	dim := len(sc.Mean)
	if len(sc.Std) != dim {
		return 0, fmt.Errorf("standardizer has %d means but %d scales", dim, len(sc.Std))
	}
	for i, row := range xTrain {
		if len(row) != dim {
			return 0, fmt.Errorf("training point %d has %d features, the standardizer %d", i, len(row), dim)
		}
	}
	return dim, nil
}

// encodeTree flattens the node graph into a preorder slice.
func encodeTree(t *Tree) treeState {
	st := treeState{MaxDepth: t.MaxDepth, MinLeafSize: t.MinLeafSize, Dim: t.dim}
	var flatten func(n *treeNode) int
	flatten = func(n *treeNode) int {
		at := len(st.Nodes)
		st.Nodes = append(st.Nodes, flatNode{
			Feature: n.feature, Threshold: n.threshold, Value: n.value, Left: -1, Right: -1,
		})
		if n.left != nil {
			l := flatten(n.left)
			r := flatten(n.right)
			st.Nodes[at].Left, st.Nodes[at].Right = l, r
		}
		return at
	}
	flatten(t.root)
	return st
}

func decodeTree(st treeState) (*Tree, error) {
	if len(st.Nodes) == 0 {
		return nil, fmt.Errorf("ml: tree state has no nodes")
	}
	nodes := make([]*treeNode, len(st.Nodes))
	for i, fn := range st.Nodes {
		nodes[i] = &treeNode{feature: fn.Feature, threshold: fn.Threshold, value: fn.Value}
	}
	for i, fn := range st.Nodes {
		if (fn.Left < 0) != (fn.Right < 0) {
			return nil, fmt.Errorf("ml: tree node %d has exactly one child", i)
		}
		if fn.Left >= 0 {
			// encodeTree writes preorder, so a child always follows its
			// parent; holding a file to that keeps the links acyclic, and
			// Predict's walk finite.
			if fn.Left >= len(nodes) || fn.Right >= len(nodes) || fn.Left <= i || fn.Right <= i {
				return nil, fmt.Errorf("ml: tree node %d has out-of-range children (%d, %d)", i, fn.Left, fn.Right)
			}
			if fn.Feature < 0 || fn.Feature >= st.Dim {
				return nil, fmt.Errorf("ml: tree node %d splits on feature %d of %d", i, fn.Feature, st.Dim)
			}
			nodes[i].left, nodes[i].right = nodes[fn.Left], nodes[fn.Right]
		}
	}
	return &Tree{
		MaxDepth: st.MaxDepth, MinLeafSize: st.MinLeafSize,
		root: nodes[0], dim: st.Dim, fitted: true,
	}, nil
}

func encodeMatrix(m *linalg.Matrix) matrixState {
	return matrixState{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

func decodeMatrix(st matrixState) (*linalg.Matrix, error) {
	if st.Rows < 0 || st.Cols < 0 || len(st.Data) != st.Rows*st.Cols {
		return nil, fmt.Errorf("ml: matrix state %d×%d with %d entries", st.Rows, st.Cols, len(st.Data))
	}
	m := linalg.NewMatrix(st.Rows, st.Cols)
	copy(m.Data, st.Data)
	return m, nil
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

// MultiOutputState is the JSON-serializable state of a trained
// MultiOutput bank; core embeds it in predictor files.
type MultiOutputState struct {
	Models []modelState `json:"models"`
}

// State snapshots the trained bank. It errors before Fit.
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

// MultiOutputFromState rebuilds a trained bank from its snapshot. The
// bank's model factory is reconstructed from the first model's family,
// and every model must take the same number of features (Inputs).
func MultiOutputFromState(st MultiOutputState) (*MultiOutput, error) {
	if len(st.Models) == 0 {
		return nil, fmt.Errorf("ml: multi-output state has no models")
	}
	factory, ok := FactoryFor(st.Models[0].Kind)
	if !ok {
		return nil, fmt.Errorf("ml: unknown model family %q", st.Models[0].Kind)
	}
	bank := NewMultiOutput(factory)
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
