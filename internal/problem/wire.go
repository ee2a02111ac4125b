package problem

import (
	"fmt"
	"math"

	"qaoaml/internal/graph"
)

// Wire is the one JSON form of a problem instance: the payload of a
// qaoad request (internal/server's SolveRequest embeds it) and of a
// schema-v2 dataset entry (internal/core). Each family reads its own
// fields and refuses the others':
//
//	maxcut:    nodes, edges, weights
//	qubo:      nodes, linear, quad, offset, sense, vars
//	maxksat:   vars, clauses, clause_weights
//	partition: numbers
//	portfolio: returns, covariance, risk_aversion, budget, penalty
//	coloring:  nodes, edges, colors
//
// Spec is its decoder and WireOf its encoder.
type Wire struct {
	Nodes   int       `json:"nodes,omitempty"`
	Edges   [][2]int  `json:"edges,omitempty"`
	Weights []float64 `json:"weights,omitempty"` // parallel to Edges; omitted = unweighted

	// qubo: an explicit Ising Hamiltonian over Nodes spins — per-spin
	// fields, couplings, constant offset, and the optimization sense
	// ("min" by default: spin glasses minimize energy). Vars marks how
	// many leading spins are decision variables (default all).
	Linear []float64  `json:"linear,omitempty"`
	Quad   []WireTerm `json:"quad,omitempty"`
	Offset float64    `json:"offset,omitempty"`
	Sense  string     `json:"sense,omitempty"`
	Vars   int        `json:"vars,omitempty"`

	// maxksat: weighted Max-k-SAT (k ≤ 3) over Vars variables, clauses
	// as DIMACS-style signed literals (±(v+1)). Three-literal clauses add
	// one auxiliary qubit each (Rosenberg quadratization).
	Clauses       [][]int   `json:"clauses,omitempty"`
	ClauseWeights []float64 `json:"clause_weights,omitempty"`

	// partition: positive numbers to split into two equal-sum halves.
	Numbers []float64 `json:"numbers,omitempty"`

	// portfolio: budget-constrained mean-variance selection.
	Returns      []float64   `json:"returns,omitempty"`
	Covariance   [][]float64 `json:"covariance,omitempty"`
	RiskAversion float64     `json:"risk_aversion,omitempty"`
	Budget       int         `json:"budget,omitempty"`
	Penalty      float64     `json:"penalty,omitempty"`

	// coloring: the nodes/edges graph plus the color count (nodes·colors
	// qubits).
	Colors int `json:"colors,omitempty"`
}

// WireTerm is one quadratic coupling J·s_i·s_j on the wire.
type WireTerm struct {
	I int     `json:"i"`
	J int     `json:"j"`
	W float64 `json:"w"`
}

// wireFields maps each family to the payload fields it reads; a payload
// setting any other family's field is refused, so typos and family
// mixups surface as errors instead of silently ignored fields.
var wireFields = map[string]map[string]bool{
	FamilyMaxCut:    {"nodes": true, "edges": true, "weights": true},
	FamilyQUBO:      {"nodes": true, "linear": true, "quad": true, "offset": true, "sense": true, "vars": true},
	FamilyMaxKSAT:   {"vars": true, "clauses": true, "clause_weights": true},
	FamilyPartition: {"numbers": true},
	FamilyPortfolio: {"returns": true, "covariance": true, "risk_aversion": true, "budget": true, "penalty": true},
	FamilyColoring:  {"nodes": true, "edges": true, "colors": true},
}

// foreignField returns the first set field, in declaration order, that
// allowed does not list ("" if none).
func (w Wire) foreignField(allowed map[string]bool) string {
	for _, f := range [...]struct {
		name string
		set  bool
	}{
		{"nodes", w.Nodes != 0},
		{"edges", len(w.Edges) > 0},
		{"weights", w.Weights != nil},
		{"linear", w.Linear != nil},
		{"quad", len(w.Quad) > 0},
		{"offset", w.Offset != 0},
		{"sense", w.Sense != ""},
		{"vars", w.Vars != 0},
		{"clauses", len(w.Clauses) > 0},
		{"clause_weights", w.ClauseWeights != nil},
		{"numbers", len(w.Numbers) > 0},
		{"returns", len(w.Returns) > 0},
		{"covariance", len(w.Covariance) > 0},
		{"risk_aversion", w.RiskAversion != 0},
		{"budget", w.Budget != 0},
		{"penalty", w.Penalty != 0},
		{"colors", w.Colors != 0},
	} {
		if f.set && !allowed[f.name] {
			return f.name
		}
	}
	return ""
}

// Spec decodes the payload as an instance of family whose register may
// be at most maxQubits wide. The checks run in a fixed order, so a
// payload with several faults always reports the same one: the family,
// a field another family reads, the graph (maxcut, coloring), the
// family's own rules, and — for coloring, partition and portfolio, whose
// width is arithmetic — the register width, before any coupling exists.
// The width of a qubo or maxksat instance is known only once compiled;
// the caller compiles and checks it (CheckWidth). The Spec shares the
// payload's slices.
func (w Wire) Spec(family string, maxQubits int) (Spec, error) {
	allowed, ok := wireFields[family]
	if !ok {
		return Spec{}, fmt.Errorf("unknown problem %q (want one of %v)", family, Families())
	}
	if f := w.foreignField(allowed); f != "" {
		return Spec{}, fmt.Errorf("field %q is not valid for problem %q", f, family)
	}
	var s Spec
	switch family {
	case FamilyMaxCut:
		g, err := w.buildGraph(maxQubits)
		if err != nil {
			return Spec{}, err
		}
		return MaxCut(g), nil
	case FamilyQUBO:
		if w.Nodes < 1 {
			return Spec{}, fmt.Errorf("qubo needs nodes >= 1")
		}
		sense := w.Sense
		if sense == "" {
			sense = "min"
		}
		sn, err := ParseSense(sense)
		if err != nil {
			return Spec{}, err
		}
		in := &Instance{Family: FamilyQUBO, Sense: sn, N: w.Nodes, Vars: w.Vars, Linear: w.Linear, Offset: w.Offset}
		if in.Vars == 0 {
			in.Vars = in.N
		}
		for _, t := range w.Quad {
			in.Quad = append(in.Quad, Term{I: t.I, J: t.J, W: t.W})
		}
		return FromInstance(in), nil
	case FamilyMaxKSAT:
		f := &Formula{Vars: w.Vars, Weights: w.ClauseWeights}
		for _, cl := range w.Clauses {
			f.Clauses = append(f.Clauses, Clause(cl))
		}
		return MaxKSAT(f), nil
	case FamilyPartition:
		s = Partition(w.Numbers)
	case FamilyPortfolio:
		s = Portfolio(&PortfolioSpec{
			Returns: w.Returns, Covariance: w.Covariance,
			RiskAversion: w.RiskAversion, Budget: w.Budget, Penalty: w.Penalty,
		})
	case FamilyColoring:
		if w.Weights != nil {
			return Spec{}, fmt.Errorf("coloring takes no edge weights")
		}
		g, err := w.buildGraph(maxQubits)
		if err != nil {
			return Spec{}, err
		}
		if w.Colors < 2 {
			return Spec{}, fmt.Errorf("coloring needs colors >= 2, got %d", w.Colors)
		}
		s = Coloring(g, w.Colors)
	}
	qubits, err := s.Qubits()
	if err == nil {
		err = CheckWidth(family, qubits, maxQubits)
	}
	if err != nil {
		return Spec{}, err
	}
	return s, nil
}

// buildGraph builds the nodes/edges/weights graph maxcut and coloring share.
func (w Wire) buildGraph(maxQubits int) (*graph.Graph, error) {
	if w.Nodes < 2 || w.Nodes > maxQubits {
		return nil, fmt.Errorf("nodes %d out of [2, %d]", w.Nodes, maxQubits)
	}
	if len(w.Edges) == 0 {
		return nil, fmt.Errorf("instance has no edges")
	}
	if w.Weights != nil && len(w.Weights) != len(w.Edges) {
		return nil, fmt.Errorf("%d weights for %d edges", len(w.Weights), len(w.Edges))
	}
	g := graph.New(w.Nodes)
	total := 0.0
	for i, e := range w.Edges {
		if e[0] < 0 || e[0] >= w.Nodes || e[1] < 0 || e[1] >= w.Nodes {
			return nil, fmt.Errorf("edge %d (%d,%d) out of range for %d nodes", i, e[0], e[1], w.Nodes)
		}
		wt := 1.0
		if w.Weights != nil {
			wt = w.Weights[i]
		}
		if err := g.AddWeightedEdge(e[0], e[1], wt); err != nil {
			return nil, fmt.Errorf("edge %d: %v", i, err)
		}
		total += math.Abs(wt)
	}
	// MaxCut is not compiled until it is solved, and a cut is a sum of
	// weights: each finite is not enough.
	if math.IsInf(total, 0) {
		return nil, fmt.Errorf("edge weights overflow: Σ|w| is not finite")
	}
	return g, nil
}

// CheckWidth holds a family's register width against the cap.
func CheckWidth(family string, qubits, maxQubits int) error {
	if qubits < 2 || qubits > maxQubits {
		return fmt.Errorf("%s instance needs %d qubits, out of [2, %d]", family, qubits, maxQubits)
	}
	return nil
}

// WireOf encodes a spec as its payload, the inverse of Spec:
// WireOf(s).Spec(s.Family, …) fingerprints as s does. Coloring's
// penalties have no wire field; a dataset entry stores them beside it.
func WireOf(s Spec) (Wire, error) {
	var w Wire
	switch s.Family {
	case FamilyMaxCut, FamilyColoring:
		if s.Graph == nil {
			return w, fmt.Errorf("problem: %s spec has no graph", s.Family)
		}
		w.Nodes = s.Graph.N
		for _, e := range s.Graph.Edges() {
			w.Edges = append(w.Edges, [2]int{e.U, e.V})
		}
		if s.Family == FamilyColoring {
			w.Colors = s.Colors // the coloring penalty ignores edge weights
		} else if s.Graph.Weighted() {
			w.Weights = s.Graph.Weights()
		}
	case FamilyQUBO:
		in := s.Inst
		if in == nil {
			return w, fmt.Errorf("problem: qubo spec has no instance")
		}
		w.Nodes, w.Vars, w.Linear, w.Offset, w.Sense = in.N, in.Vars, in.Linear, in.Offset, in.Sense.String()
		for _, t := range in.Quad {
			w.Quad = append(w.Quad, WireTerm{I: t.I, J: t.J, W: t.W})
		}
	case FamilyMaxKSAT:
		if s.Formula == nil {
			return w, fmt.Errorf("problem: maxksat spec has no formula")
		}
		w.Vars, w.ClauseWeights = s.Formula.Vars, s.Formula.Weights
		for _, cl := range s.Formula.Clauses {
			w.Clauses = append(w.Clauses, cl)
		}
	case FamilyPartition:
		w.Numbers = s.Numbers
	case FamilyPortfolio:
		p := s.Port
		if p == nil {
			return w, errPortfolioPayload
		}
		w.Returns, w.Covariance, w.RiskAversion, w.Budget, w.Penalty = p.Returns, p.Covariance, p.RiskAversion, p.Budget, p.Penalty
	default:
		return w, fmt.Errorf("problem: unknown family %q (want one of %v)", s.Family, Families())
	}
	return w, nil
}
