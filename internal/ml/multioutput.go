package ml

import "fmt"

// MultiOutput fits one independent single-output Regressor per target
// column. The paper's predictor maps 3 features to 2·pt outputs (the γ
// and β parameters of the target-depth instance); training one model
// per output is the standard reduction.
type MultiOutput struct {
	// New constructs a fresh underlying model for each output column.
	New func() Regressor

	models []Regressor
	inputs int // features per Predict row, once fitted or loaded
}

// NewMultiOutput returns a MultiOutput with the given model factory.
func NewMultiOutput(factory func() Regressor) *MultiOutput {
	if factory == nil {
		panic("ml: nil model factory")
	}
	return &MultiOutput{New: factory}
}

// Outputs returns the number of target columns (0 before Fit).
func (m *MultiOutput) Outputs() int { return len(m.models) }

// Inputs returns the number of features Predict takes (0 before Fit).
func (m *MultiOutput) Inputs() int { return m.inputs }

// Fit trains one model per column of y. All rows of y must share a
// length; x rows are validated by the underlying models. A GPR bank
// walks its hyperparameter grid once for all columns, with the
// settings of the factory's first model (GPR.fitBanks).
func (m *MultiOutput) Fit(x [][]float64, y [][]float64) error {
	_, err := FitBanks([]*MultiOutput{m}, [][][]float64{x}, [][][]float64{y})
	return err
}

// FitBanks fits banks[b] to (x[b], y[b]) for every b. It is Fit on each
// bank in turn — the same models, and on failure the error Fit gives
// for the first bank that fails, with that bank's index — except that
// when every factory makes a GPR with the same settings the banks walk
// the hyperparameter grid together (GPR.fitBanks): banks whose
// standardized features are bitwise equal share every kernel matrix
// and factor.
func FitBanks(banks []*MultiOutput, x, y [][][]float64) (int, error) {
	cols := make([][][]float64, len(banks))
	shape := make([]error, len(banks))
	for b := range banks {
		cols[b], shape[b] = columns(x[b], y[b])
	}
	g, shared := sharedGPR(banks)
	var fits [][]*GPR
	var errs [][]error
	if shared {
		fits, errs = g.fitBanks(x, cols)
	}
	for b, m := range banks {
		if shape[b] != nil {
			return b, shape[b]
		}
		models := make([]Regressor, len(cols[b]))
		for j, col := range cols[b] {
			var err error
			if shared {
				models[j], err = fits[b][j], errs[b][j]
			} else {
				models[j] = m.New()
				err = models[j].Fit(x[b], col)
			}
			if err != nil {
				return b, fmt.Errorf("ml: fitting output %d: %w", j, err)
			}
		}
		m.models, m.inputs = models, len(x[b][0])
	}
	return -1, nil
}

// sharedGPR returns the first model of banks[0]'s factory when every
// bank's factory makes a GPR with its settings.
func sharedGPR(banks []*MultiOutput) (*GPR, bool) {
	var g *GPR
	for _, m := range banks {
		h, ok := m.New().(*GPR)
		if !ok || g != nil && h.LinearVar != g.LinearVar {
			return nil, false
		}
		if g == nil {
			g = h
		}
	}
	return g, g != nil
}

// columns checks the shape of a bank's training data and returns y's
// columns.
func columns(x [][]float64, y [][]float64) ([][]float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return nil, ErrEmptyTrainingSet
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("%w: %d feature rows vs %d target rows", ErrBadShape, len(x), len(y))
	}
	width := len(y[0])
	if width == 0 {
		return nil, fmt.Errorf("%w: zero-width target rows", ErrBadShape)
	}
	for i, row := range y {
		if len(row) != width {
			return nil, fmt.Errorf("%w: target row %d has %d values, want %d", ErrBadShape, i, len(row), width)
		}
	}
	cols := make([][]float64, width)
	for j := range cols {
		cols[j] = make([]float64, len(y))
		for i := range y {
			cols[j][i] = y[i][j]
		}
	}
	return cols, nil
}

// Predict returns all outputs for one feature vector.
// It panics before Fit.
func (m *MultiOutput) Predict(x []float64) []float64 {
	if len(m.models) == 0 {
		panic("ml: MultiOutput.Predict before Fit")
	}
	out := make([]float64, len(m.models))
	for j, mod := range m.models {
		out[j] = mod.Predict(x)
	}
	return out
}
