package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
	"qaoaml/internal/qaoa"
)

// The dataset takes minutes to generate at paper scale but is a
// one-time cost (Sec. III-A); Save/Load let the CLI and downstream
// users generate once and retrain/re-evaluate cheaply.
//
// Two schema versions coexist. Version 1 (edge lists only) is what
// every MaxCut dataset ever written uses, and MaxCut datasets still
// write it byte-identically. Version 2 persists the full problem.Spec
// per instance — the tagged family union mirroring the qaoad wire
// schema — so qubo/maxksat/partition/portfolio/coloring datasets
// round-trip too. Load accepts both.

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

// specFile is the v2 per-instance payload: one family tag plus that
// family's fields, mirroring the qaoad wire schema (internal/server's
// SolveRequest) field for field.
type specFile struct {
	Family  string    `json:"family"`
	Nodes   int       `json:"nodes,omitempty"`
	Edges   [][2]int  `json:"edges,omitempty"`
	Weights []float64 `json:"weights,omitempty"` // parallel to Edges; nil = unweighted

	// qubo
	Linear []float64      `json:"linear,omitempty"`
	Quad   []quadTermFile `json:"quad,omitempty"`
	Offset float64        `json:"offset,omitempty"`
	Sense  string         `json:"sense,omitempty"` // "min" or "max"
	Vars   int            `json:"vars,omitempty"`

	// maxksat
	Clauses       [][]int   `json:"clauses,omitempty"`
	ClauseWeights []float64 `json:"clause_weights,omitempty"`

	// partition
	Numbers []float64 `json:"numbers,omitempty"`

	// portfolio
	Returns      []float64   `json:"returns,omitempty"`
	Covariance   [][]float64 `json:"covariance,omitempty"`
	RiskAversion float64     `json:"risk_aversion,omitempty"`
	Budget       int         `json:"budget,omitempty"`
	Penalty      float64     `json:"penalty,omitempty"`

	// coloring
	Colors   int     `json:"colors,omitempty"`
	PenaltyA float64 `json:"penalty_a,omitempty"`
	PenaltyB float64 `json:"penalty_b,omitempty"`
}

type quadTermFile struct {
	I int     `json:"i"`
	J int     `json:"j"`
	W float64 `json:"w"`
}

const (
	dataFileVersion   = 1 // MaxCut: edge lists (every pre-v2 file)
	dataFileVersionV2 = 2 // any family: full problem specs
)

// Save serializes the dataset as JSON. MaxCut datasets keep writing
// schema v1 byte-identically (edge lists); every other family writes
// v2: the same config and record layout, with the full per-instance
// spec in place of the edge list.
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
	if d.Config.Family != "" && d.Config.Family != problem.FamilyMaxCut {
		df.Version = dataFileVersionV2
		for i, pb := range d.Problems {
			sf, err := encodeSpec(pb.Spec)
			if err != nil {
				return fmt.Errorf("core: instance %d: %w", i, err)
			}
			df.Specs = append(df.Specs, sf)
		}
	} else {
		df.Nodes = d.Config.Nodes
		for _, pb := range d.Problems {
			var edges [][2]int
			for _, e := range pb.Graph.Edges() {
				edges = append(edges, [2]int{e.U, e.V})
			}
			df.Graphs = append(df.Graphs, edges)
		}
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

// encodeSpec lowers one problem.Spec to the tagged v2 union.
func encodeSpec(s problem.Spec) (specFile, error) {
	sf := specFile{Family: s.Family}
	switch s.Family {
	case problem.FamilyMaxCut, problem.FamilyColoring:
		if s.Graph == nil {
			return sf, fmt.Errorf("%s spec has no graph", s.Family)
		}
		sf.Nodes = s.Graph.N
		for _, e := range s.Graph.Edges() {
			sf.Edges = append(sf.Edges, [2]int{e.U, e.V})
		}
		if s.Graph.Weighted() {
			sf.Weights = s.Graph.Weights()
		}
		sf.Colors = s.Colors
		sf.PenaltyA = s.PenaltyA
		sf.PenaltyB = s.PenaltyB
	case problem.FamilyQUBO:
		if s.Inst == nil {
			return sf, fmt.Errorf("qubo spec has no instance")
		}
		sf.Nodes = s.Inst.N
		sf.Vars = s.Inst.Vars
		sf.Linear = s.Inst.Linear
		sf.Offset = s.Inst.Offset
		if s.Inst.Sense == problem.Maximize {
			sf.Sense = "max"
		} else {
			sf.Sense = "min"
		}
		for _, t := range s.Inst.Quad {
			sf.Quad = append(sf.Quad, quadTermFile{I: t.I, J: t.J, W: t.W})
		}
	case problem.FamilyMaxKSAT:
		if s.Formula == nil {
			return sf, fmt.Errorf("maxksat spec has no formula")
		}
		sf.Vars = s.Formula.Vars
		for _, cl := range s.Formula.Clauses {
			sf.Clauses = append(sf.Clauses, append([]int(nil), cl...))
		}
		sf.ClauseWeights = s.Formula.Weights
	case problem.FamilyPartition:
		sf.Numbers = s.Numbers
	case problem.FamilyPortfolio:
		if s.Port == nil {
			return sf, fmt.Errorf("portfolio spec has no payload")
		}
		sf.Returns = s.Port.Returns
		sf.Covariance = s.Port.Covariance
		sf.RiskAversion = s.Port.RiskAversion
		sf.Budget = s.Port.Budget
		sf.Penalty = s.Port.Penalty
	default:
		return sf, fmt.Errorf("unknown family %q", s.Family)
	}
	return sf, nil
}

// decodeGraph rebuilds a graph from a file's edge list (weights nil =
// unweighted). The file comes from outside the program, and graph.New
// and AddWeightedEdge panic on a negative size or an endpoint out of
// range, so both are checked here; the size cap is qaoa.New's own,
// applied before anything is allocated for it.
func decodeGraph(nodes int, edges [][2]int, weights []float64) (*graph.Graph, error) {
	if nodes < 2 || nodes > problem.BruteForceMaxQubits {
		return nil, fmt.Errorf("%d nodes out of [2, %d]", nodes, problem.BruteForceMaxQubits)
	}
	if weights != nil && len(weights) != len(edges) {
		return nil, fmt.Errorf("%d weights for %d edges", len(weights), len(edges))
	}
	g := graph.New(nodes)
	for ei, e := range edges {
		if e[0] < 0 || e[0] >= nodes || e[1] < 0 || e[1] >= nodes {
			return nil, fmt.Errorf("edge (%d,%d) out of range for %d nodes", e[0], e[1], nodes)
		}
		w := 1.0
		if weights != nil {
			w = weights[ei]
		}
		if err := g.AddWeightedEdge(e[0], e[1], w); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// decodeSpec rebuilds the problem.Spec a v2 file carries.
func decodeSpec(sf specFile) (problem.Spec, error) {
	var zero problem.Spec
	switch sf.Family {
	case problem.FamilyMaxCut, problem.FamilyColoring:
		g, err := decodeGraph(sf.Nodes, sf.Edges, sf.Weights)
		if err != nil {
			return zero, err
		}
		if sf.Family == problem.FamilyMaxCut {
			return problem.MaxCut(g), nil
		}
		// The one-hot register is nodes·colors wide and compiling it builds
		// nodes·colors²/2 couplings, so the width is capped before that.
		if sf.Colors < 2 || sf.Colors > problem.BruteForceMaxQubits/sf.Nodes {
			return zero, fmt.Errorf("%d nodes × %d colors out of [2 colors, %d qubits]", sf.Nodes, sf.Colors, problem.BruteForceMaxQubits)
		}
		s := problem.Coloring(g, sf.Colors)
		s.PenaltyA = sf.PenaltyA
		s.PenaltyB = sf.PenaltyB
		return s, nil
	case problem.FamilyQUBO:
		sense := problem.Minimize
		if sf.Sense == "max" {
			sense = problem.Maximize
		}
		vars := sf.Vars
		if vars == 0 {
			vars = sf.Nodes
		}
		in := &problem.Instance{
			Family: problem.FamilyQUBO, Sense: sense,
			N: sf.Nodes, Vars: vars,
			Linear: sf.Linear, Offset: sf.Offset,
		}
		for _, t := range sf.Quad {
			in.Quad = append(in.Quad, problem.Term{I: t.I, J: t.J, W: t.W})
		}
		return problem.FromInstance(in), nil
	case problem.FamilyMaxKSAT:
		f := &problem.Formula{Vars: sf.Vars, Weights: sf.ClauseWeights}
		for _, cl := range sf.Clauses {
			f.Clauses = append(f.Clauses, problem.Clause(append([]int(nil), cl...)))
		}
		return problem.MaxKSAT(f), nil
	case problem.FamilyPartition:
		return problem.Partition(sf.Numbers), nil
	case problem.FamilyPortfolio:
		return problem.Portfolio(&problem.PortfolioSpec{
			Returns: sf.Returns, Covariance: sf.Covariance,
			RiskAversion: sf.RiskAversion, Budget: sf.Budget, Penalty: sf.Penalty,
		}), nil
	}
	return zero, fmt.Errorf("unknown family %q", sf.Family)
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
	if df.Version != dataFileVersion && df.Version != dataFileVersionV2 {
		return nil, fmt.Errorf("core: unsupported dataset version %d (want %d or %d)", df.Version, dataFileVersion, dataFileVersionV2)
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
	switch df.Version {
	case dataFileVersion:
		if len(df.Graphs) != len(df.Records) {
			return nil, fmt.Errorf("core: dataset has %d graphs but %d record rows", len(df.Graphs), len(df.Records))
		}
		for gi, edges := range df.Graphs {
			g, err := decodeGraph(df.Nodes, edges, nil)
			if err != nil {
				return nil, fmt.Errorf("core: dataset graph %d: %w", gi, err)
			}
			pb, err := qaoa.NewProblem(g)
			if err != nil {
				return nil, fmt.Errorf("core: dataset graph %d: %w", gi, err)
			}
			d.Problems = append(d.Problems, pb)
		}
	case dataFileVersionV2:
		if len(df.Specs) != len(df.Records) {
			return nil, fmt.Errorf("core: dataset has %d specs but %d record rows", len(df.Specs), len(df.Records))
		}
		for si, sf := range df.Specs {
			spec, err := decodeSpec(sf)
			if err != nil {
				return nil, fmt.Errorf("core: dataset instance %d: %w", si, err)
			}
			pb, err := qaoa.New(spec)
			if err != nil {
				return nil, fmt.Errorf("core: dataset instance %d: %w", si, err)
			}
			d.Problems = append(d.Problems, pb)
		}
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
