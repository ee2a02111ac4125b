package problem

import (
	"fmt"
	"math"

	"qaoaml/internal/graph"
)

// Spec is the single problem-specification type every layer accepts:
// qaoa constructors, core datagen/naive/two-level entry points and the
// qaoad server all take a Spec and compile it once. Exactly one family
// payload is populated, per the Family string; the family constructors
// below are the supported way to build one. Its one JSON form is Wire
// (wire.go): qaoad requests and dataset files decode through Wire.Spec
// and encode through WireOf.
type Spec struct {
	Family string

	Graph    *graph.Graph   // maxcut, coloring
	Inst     *Instance      // qubo: a pre-built Hamiltonian
	Formula  *Formula       // maxksat
	Numbers  []float64      // partition
	Port     *PortfolioSpec // portfolio
	Colors   int            // coloring
	PenaltyA float64        // coloring one-hot penalty (0 = 1)
	PenaltyB float64        // coloring conflict penalty (0 = 1)
}

// MaxCut wraps a weighted graph as a MaxCut spec, the paper's family.
func MaxCut(g *graph.Graph) Spec { return Spec{Family: FamilyMaxCut, Graph: g} }

// FromInstance wraps a pre-built Ising/QUBO Hamiltonian.
func FromInstance(in *Instance) Spec { return Spec{Family: FamilyQUBO, Inst: in} }

// MaxKSAT wraps a weighted Max-k-SAT formula (k ≤ 3).
func MaxKSAT(f *Formula) Spec { return Spec{Family: FamilyMaxKSAT, Formula: f} }

// Partition wraps a number-partitioning instance.
func Partition(numbers []float64) Spec { return Spec{Family: FamilyPartition, Numbers: numbers} }

// Portfolio wraps a portfolio-selection instance.
func Portfolio(p *PortfolioSpec) Spec { return Spec{Family: FamilyPortfolio, Port: p} }

// Coloring wraps a graph k-coloring instance (default penalties 1).
func Coloring(g *graph.Graph, colors int) Spec {
	return Spec{Family: FamilyColoring, Graph: g, Colors: colors}
}

// Compile lowers the spec to its validated Ising Instance, the one
// form qaoa evaluates (MaxCut: Offset m/2, J = −w/2).
func (s Spec) Compile() (*Instance, error) {
	switch s.Family {
	case FamilyMaxCut:
		if s.Graph == nil {
			return nil, fmt.Errorf("problem: maxcut spec has no graph")
		}
		return CompileMaxCut(s.Graph)
	case FamilyQUBO:
		if s.Inst == nil {
			return nil, fmt.Errorf("problem: qubo spec has no instance")
		}
		if err := s.Inst.Validate(); err != nil {
			return nil, err
		}
		return s.Inst, nil
	case FamilyMaxKSAT:
		if s.Formula == nil {
			return nil, fmt.Errorf("problem: maxksat spec has no formula")
		}
		return CompileMaxKSAT(s.Formula)
	case FamilyPartition:
		return CompilePartition(s.Numbers)
	case FamilyPortfolio:
		if s.Port == nil {
			return nil, errPortfolioPayload
		}
		return CompilePortfolio(s.Port)
	case FamilyColoring:
		if s.Graph == nil {
			return nil, fmt.Errorf("problem: coloring spec has no graph")
		}
		return CompileColoring(s.Graph, s.Colors, s.PenaltyA, s.PenaltyB)
	}
	return nil, fmt.Errorf("problem: unknown family %q (want one of %v)", s.Family, Families())
}

// Qubits returns the compiled register width of a partition, portfolio
// or coloring spec (coloring uses n·k qubits) by arithmetic on the
// payload, so a width cap is checked before any coupling is built; a
// payload too small to compile fails with Compile's error. Every other
// family's width is known only once compiled (maxksat adds auxiliaries).
func (s Spec) Qubits() (int, error) {
	switch s.Family {
	case FamilyPartition:
		if len(s.Numbers) < 2 {
			return 0, errPartitionSize
		}
		return len(s.Numbers), nil
	case FamilyPortfolio:
		if s.Port == nil {
			return 0, errPortfolioPayload
		}
		if len(s.Port.Returns) < 2 {
			return 0, errPortfolioSize
		}
		return len(s.Port.Returns), nil
	case FamilyColoring:
		if s.Graph == nil {
			return 0, fmt.Errorf("problem: coloring spec has no graph")
		}
		if s.Colors < 2 {
			return 0, fmt.Errorf("problem: coloring needs at least 2 colors, got %d", s.Colors)
		}
		// Colors is a bare number from a request or a file: bounded by
		// division, so the product cannot wrap around to a valid width.
		if s.Colors > math.MaxInt/max(s.Graph.N, 1) {
			return 0, fmt.Errorf("problem: coloring of %d nodes with %d colors overflows the register width", s.Graph.N, s.Colors)
		}
		return s.Graph.N * s.Colors, nil
	}
	return 0, fmt.Errorf("problem: %s width is known only once compiled", s.Family)
}

// Fingerprint returns the canonical cache identity of the spec. MaxCut
// keeps the plain graph fingerprint (so pre-Spec cache keys stay
// stable); every other family hashes the full compiled instance —
// linear terms and offsets included — so distinct instances over the
// same coupling graph never alias.
func (s Spec) Fingerprint() (string, error) {
	if s.Family == FamilyMaxCut {
		if s.Graph == nil {
			return "", fmt.Errorf("problem: maxcut spec has no graph")
		}
		return s.Graph.Fingerprint(), nil
	}
	in, err := s.Compile()
	if err != nil {
		return "", err
	}
	return in.Fingerprint(), nil
}
