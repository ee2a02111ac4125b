package ml

import "fmt"

// MultiOutput fits one independent single-output Regressor per target
// column. The paper's predictor maps the features (γ1, β1) to 2·pt
// outputs (the γ and β parameters of the target-depth instance), and pt
// selects the bank; training one model per output is the standard
// reduction.
type MultiOutput struct {
	models []Regressor
	inputs int // features per Predict row, once fitted or loaded
}

// Outputs returns the number of target columns (0 before Fit).
func (m *MultiOutput) Outputs() int { return len(m.models) }

// Inputs returns the number of features Predict takes (0 before Fit).
func (m *MultiOutput) Inputs() int { return m.inputs }

// FitBanks fits one bank of factory's models per target matrix, bank b
// to (x, ys[b]) with one model per column: every bank shares the
// features x. All rows of a target matrix must share a length; x rows
// are validated by the underlying models. On failure it returns the
// index of the first bank that fails and the error fitting that bank
// alone gives. A GPR factory fits every column of every bank in one
// walk of the hyperparameter grid (GPR.fitColumns), with the settings
// of its first model.
func FitBanks(factory func() Regressor, x [][]float64, ys [][][]float64) ([]*MultiOutput, int, error) {
	cols := make([][][]float64, len(ys))
	shape := make([]error, len(ys))
	var all [][]float64
	for b, y := range ys {
		cols[b], shape[b] = columns(x, y)
		all = append(all, cols[b]...)
	}
	g, isGPR := factory().(*GPR)
	var fits []*GPR
	var errs []error
	if isGPR {
		fits, errs = g.fitColumns(x, all)
	}
	banks := make([]*MultiOutput, len(ys))
	k := 0 // next column of all
	for b := range ys {
		if shape[b] != nil {
			return nil, b, shape[b]
		}
		models := make([]Regressor, len(cols[b]))
		for j, col := range cols[b] {
			var err error
			if isGPR {
				models[j], err = fits[k], errs[k]
				k++
			} else {
				models[j] = factory()
				err = models[j].Fit(x, col)
			}
			if err != nil {
				return nil, b, fmt.Errorf("ml: fitting output %d: %w", j, err)
			}
		}
		banks[b] = &MultiOutput{models: models, inputs: len(x[0])}
	}
	return banks, -1, nil
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
