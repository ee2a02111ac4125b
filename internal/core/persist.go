package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

// The dataset takes minutes to generate at paper scale but is a
// one-time cost (Sec. III-A); Save/Load let the CLI and downstream
// users generate once and retrain/re-evaluate cheaply.
//
// The file is schema version 2 for every family: the generation
// config and the full problem.Spec per instance — the family tag plus
// the payload a qaoad request carries (problem.Wire), so a weighted
// MaxCut graph keeps its weights — decoded as a request is.

// dataFile is the JSON schema of a persisted dataset.
type dataFile struct {
	Version int            `json:"version"`
	Config  DataGenConfig  `json:"config"`
	Specs   []specFile     `json:"specs,omitempty"`
	Records [][]recordFile `json:"records"`
}

type recordFile struct {
	GraphID int       `json:"graph_id"`
	Depth   int       `json:"depth"`
	Gamma   []float64 `json:"gamma"`
	Beta    []float64 `json:"beta"`
	NegF    float64   `json:"neg_f"`
	AR      float64   `json:"ar"`
	NFev    int       `json:"nfev"`
	MeanFev float64   `json:"mean_fev"`
}

// specFile is the v2 per-instance payload: the family tag, the
// instance in its one JSON form (problem.Wire, the payload of a qaoad
// request too) and the coloring penalties, which no request carries.
type specFile struct {
	Family string `json:"family"`
	problem.Wire
	PenaltyA float64 `json:"penalty_a,omitempty"`
	PenaltyB float64 `json:"penalty_b,omitempty"`
}

const dataFileVersion = 2

// Save serializes the dataset as schema v2 JSON.
func (d *Data) Save(w io.Writer) error {
	df := dataFile{Version: dataFileVersion, Config: d.Config}
	for i, pb := range d.Problems {
		pw, err := problem.WireOf(pb.Spec)
		if err != nil {
			return fmt.Errorf("core: instance %d: %w", i, err)
		}
		df.Specs = append(df.Specs, specFile{Family: pb.Spec.Family, Wire: pw, PenaltyA: pb.Spec.PenaltyA, PenaltyB: pb.Spec.PenaltyB})
	}
	for _, recs := range d.Records {
		var rf []recordFile
		for _, r := range recs {
			rf = append(rf, recordFile{
				GraphID: r.GraphID, Depth: r.Depth,
				Gamma: r.Params.Gamma, Beta: r.Params.Beta,
				NegF: r.NegF, AR: r.AR, NFev: r.NFev, MeanFev: r.MeanFev,
			})
		}
		df.Records = append(df.Records, rf)
	}
	return json.NewEncoder(w).Encode(df)
}

// SaveFile writes the dataset to path.
func (d *Data) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// Load deserializes a dataset previously written by Save, rebuilding
// the per-instance cost structures and exact optima. Each instance
// decodes as a qaoad request does, capped at the widest register whose
// exact optimum qaoa.New can compute.
func Load(r io.Reader) (*Data, error) {
	var df dataFile
	if err := json.NewDecoder(r).Decode(&df); err != nil {
		return nil, fmt.Errorf("core: decoding dataset: %w", err)
	}
	if df.Version != dataFileVersion {
		return nil, fmt.Errorf("core: dataset version %d is not supported (want %d)", df.Version, dataFileVersion)
	}
	d := &Data{Config: df.Config}
	// A file without the field is MaxCut, the only family before there
	// were others.
	if d.Config.Family == "" {
		d.Config.Family = problem.FamilyMaxCut
	}
	if len(df.Specs) != len(df.Records) {
		return nil, fmt.Errorf("core: dataset has %d instances but %d record rows", len(df.Specs), len(df.Records))
	}
	for si, sf := range df.Specs {
		spec, err := sf.Wire.Spec(sf.Family, problem.BruteForceMaxQubits)
		if err != nil {
			return nil, fmt.Errorf("core: dataset instance %d: %w", si, err)
		}
		spec.PenaltyA, spec.PenaltyB = sf.PenaltyA, sf.PenaltyB
		pb, err := qaoa.New(spec)
		if err != nil {
			return nil, fmt.Errorf("core: dataset instance %d: %w", si, err)
		}
		d.Problems = append(d.Problems, pb)
	}
	for gi, rf := range df.Records {
		if len(rf) != d.Config.MaxDepth {
			return nil, fmt.Errorf("core: graph %d has %d depth records, want %d", gi, len(rf), d.Config.MaxDepth)
		}
		var recs []Record
		for di, r := range rf {
			if r.Depth != di+1 || len(r.Gamma) != r.Depth || len(r.Beta) != r.Depth {
				return nil, fmt.Errorf("core: malformed record graph %d depth %d", gi, di+1)
			}
			recs = append(recs, Record{
				GraphID: r.GraphID, Depth: r.Depth,
				Params: qaoa.Params{Gamma: r.Gamma, Beta: r.Beta},
				NegF:   r.NegF, AR: r.AR, NFev: r.NFev, MeanFev: r.MeanFev,
			})
		}
		d.Records = append(d.Records, recs)
	}
	return d, nil
}

// LoadFile reads a dataset from path.
func LoadFile(path string) (*Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
