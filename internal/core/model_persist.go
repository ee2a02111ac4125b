package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"qaoaml/internal/ml"
)

// Predictor persistence: the trained per-depth regression banks as
// versioned JSON, so the serving layer (internal/server's model
// registry) can load pre-trained predictors at startup instead of
// regenerating the dataset and retraining per process. The serialized
// state restores Predict bit-identically, which keeps the daemon's
// result cache coherent with offline runs. A file holds GPR banks only.

// predictorFileVersion is the schema version written by Predictor.Save.
const predictorFileVersion = 1

type predictorFile struct {
	Version int                            `json:"version"`
	Family  string                         `json:"family"` // underlying model family, e.g. "GPR"
	Banks   map[string]ml.MultiOutputState `json:"banks"`  // target depth (decimal string) → bank
}

// Save serializes the trained predictor as JSON. It errors before Train
// and on a predictor of any family but GPR.
func (p *Predictor) Save(w io.Writer) error {
	if len(p.banks) == 0 {
		return fmt.Errorf("core: cannot save untrained predictor")
	}
	pf := predictorFile{
		Version: predictorFileVersion,
		Family:  p.NewModel().Name(),
		Banks:   make(map[string]ml.MultiOutputState, len(p.banks)),
	}
	for depth, bank := range p.banks {
		st, err := bank.State()
		if err != nil {
			return fmt.Errorf("core: depth-%d bank: %w", depth, err)
		}
		pf.Banks[strconv.Itoa(depth)] = st
	}
	return json.NewEncoder(w).Encode(pf)
}

// SaveFile writes the predictor to path.
func (p *Predictor) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadPredictor reads a predictor previously written by Save. The
// restored banks predict bit-identically to the saved ones.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	var pf predictorFile
	if err := json.NewDecoder(r).Decode(&pf); err != nil {
		return nil, fmt.Errorf("core: decoding predictor: %w", err)
	}
	if pf.Version != predictorFileVersion {
		return nil, fmt.Errorf("core: unsupported predictor version %d (want %d)", pf.Version, predictorFileVersion)
	}
	if len(pf.Banks) == 0 {
		return nil, fmt.Errorf("core: predictor file has no trained banks")
	}
	if pf.Family != "GPR" {
		return nil, fmt.Errorf("core: model family %q refused: a predictor file holds GPR banks only", pf.Family)
	}
	p := NewPredictor(nil)
	depths := make([]string, 0, len(pf.Banks))
	for d := range pf.Banks {
		depths = append(depths, d)
	}
	sort.Strings(depths)
	for _, ds := range depths {
		depth, err := strconv.Atoi(ds)
		if err != nil || depth < 2 {
			return nil, fmt.Errorf("core: invalid bank depth key %q", ds)
		}
		bank, err := ml.MultiOutputFromState(pf.Banks[ds])
		if err != nil {
			return nil, fmt.Errorf("core: depth-%d bank: %w", depth, err)
		}
		if bank.Outputs() != 2*depth {
			return nil, fmt.Errorf("core: depth-%d bank has %d outputs, want %d", depth, bank.Outputs(), 2*depth)
		}
		if want := len(Features{}.Vector()); bank.Inputs() != want {
			return nil, fmt.Errorf("core: depth-%d bank takes %d features, want %d", depth, bank.Inputs(), want)
		}
		p.setBank(depth, bank)
	}
	return p, nil
}

// LoadPredictorFile reads a predictor from path.
func LoadPredictorFile(path string) (*Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadPredictor(f)
}
