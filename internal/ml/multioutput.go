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

// Name returns the underlying model family name, e.g. "GPR (multi-output)".
func (m *MultiOutput) Name() string {
	return fmt.Sprintf("%s (multi-output)", m.New().Name())
}

// Outputs returns the number of target columns (0 before Fit).
func (m *MultiOutput) Outputs() int { return len(m.models) }

// Inputs returns the number of features Predict takes (0 before Fit).
func (m *MultiOutput) Inputs() int { return m.inputs }

// Fit trains one model per column of y. All rows of y must share a
// length; x rows are validated by the underlying models. A GPR bank
// walks its hyperparameter grid once for all columns, with the
// settings of the factory's first model (GPR.fitColumns).
func (m *MultiOutput) Fit(x [][]float64, y [][]float64) error {
	if len(x) == 0 || len(y) == 0 {
		return ErrEmptyTrainingSet
	}
	if len(x) != len(y) {
		return fmt.Errorf("%w: %d feature rows vs %d target rows", ErrBadShape, len(x), len(y))
	}
	width := len(y[0])
	if width == 0 {
		return fmt.Errorf("%w: zero-width target rows", ErrBadShape)
	}
	for i, row := range y {
		if len(row) != width {
			return fmt.Errorf("%w: target row %d has %d values, want %d", ErrBadShape, i, len(row), width)
		}
	}
	cols := make([][]float64, width)
	for j := range cols {
		cols[j] = make([]float64, len(y))
		for i := range y {
			cols[j][i] = y[i][j]
		}
	}
	models := make([]Regressor, width)
	if g, ok := m.New().(*GPR); ok {
		fits, errs := g.fitColumns(x, cols)
		for j, err := range errs {
			if err != nil {
				return fmt.Errorf("ml: fitting output %d: %w", j, err)
			}
			models[j] = fits[j]
		}
	} else {
		for j, col := range cols {
			models[j] = m.New()
			if err := models[j].Fit(x, col); err != nil {
				return fmt.Errorf("ml: fitting output %d: %w", j, err)
			}
		}
	}
	m.models, m.inputs = models, len(x[0])
	return nil
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

// Model returns the trained model for output column j.
func (m *MultiOutput) Model(j int) Regressor { return m.models[j] }
