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
// Save writes schema version 2 for every family: the full problem.Spec
// per instance — the family tag plus the payload a qaoad request
// carries (problem.Wire), so a weighted MaxCut graph keeps its weights.
// Load also reads version 1, the unweighted MaxCut edge lists of older
// files, and decodes every instance, v1 edge lists included, through
// problem.Wire.Spec.

// dataFile is the JSON schema of a persisted dataset. Graphs is the v1
// instance payload, Specs the v2 one; exactly one is populated.
type dataFile struct {
	Version int            `json:"version"`
	Config  configFile     `json:"config"`
	Graphs  [][][2]int     `json:"graphs,omitempty"` // v1: edge lists, one per graph
	Nodes   int            `json:"nodes,omitempty"`
	Specs   []specFile     `json:"specs,omitempty"` // v2: full problem specs
	Records [][]recordFile `json:"records"`
}

type configFile struct {
	NumGraphs int     `json:"num_graphs"`
	Nodes     int     `json:"nodes"`
	EdgeProb  float64 `json:"edge_prob"`
	MaxDepth  int     `json:"max_depth"`
	Starts    int     `json:"starts"`
	Tol       float64 `json:"tol"`
	Seed      int64   `json:"seed"`
	Family    string  `json:"family,omitempty"`
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

const (
	dataFileVersionV1 = 1 // MaxCut: unweighted edge lists (read only)
	dataFileVersion   = 2 // any family: full problem specs
)

// Save serializes the dataset as schema v2 JSON.
func (d *Data) Save(w io.Writer) error {
	df := dataFile{
		Version: dataFileVersion,
		Config: configFile{
			NumGraphs: d.Config.NumGraphs,
			Nodes:     d.Config.Nodes,
			EdgeProb:  d.Config.EdgeProb,
			MaxDepth:  d.Config.MaxDepth,
			Starts:    d.Config.Starts,
			Tol:       d.Config.Tol,
			Seed:      d.Config.Seed,
			Family:    d.Config.Family,
		},
	}
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

// Load deserializes a dataset previously written by Save (either
// schema version), rebuilding the per-instance cost structures and
// exact optima.
func Load(r io.Reader) (*Data, error) {
	var df dataFile
	if err := json.NewDecoder(r).Decode(&df); err != nil {
		return nil, fmt.Errorf("core: decoding dataset: %w", err)
	}
	if df.Version != dataFileVersionV1 && df.Version != dataFileVersion {
		return nil, fmt.Errorf("core: unsupported dataset version %d (want %d or %d)", df.Version, dataFileVersionV1, dataFileVersion)
	}
	d := &Data{
		Config: DataGenConfig{
			NumGraphs: df.Config.NumGraphs,
			Nodes:     df.Config.Nodes,
			EdgeProb:  df.Config.EdgeProb,
			MaxDepth:  df.Config.MaxDepth,
			Starts:    df.Config.Starts,
			Tol:       df.Config.Tol,
			Seed:      df.Config.Seed,
			Family:    df.Config.Family,
		},
	}
	// Pre-family datasets (version-1 files without the field) are MaxCut
	// by construction.
	if d.Config.Family == "" {
		d.Config.Family = problem.FamilyMaxCut
	}
	// A v1 edge list is a MaxCut payload. Either way the instance decodes
	// as a qaoad request does, capped at the widest register whose exact
	// optimum qaoa.New can compute.
	specs := df.Specs
	if df.Version == dataFileVersionV1 {
		specs = make([]specFile, len(df.Graphs))
		for gi, edges := range df.Graphs {
			specs[gi] = specFile{Family: problem.FamilyMaxCut, Wire: problem.Wire{Nodes: df.Nodes, Edges: edges}}
		}
	}
	if len(specs) != len(df.Records) {
		return nil, fmt.Errorf("core: dataset has %d instances but %d record rows", len(specs), len(df.Records))
	}
	for si, sf := range specs {
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
