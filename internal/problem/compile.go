package problem

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"qaoaml/internal/graph"
)

// Compilers from classic scenarios onto the Ising Instance. Each
// compiler is deterministic in its input (term order fixed by the
// input's own order), so compiled instances fingerprint stably.

// CompileMaxCut maps weighted MaxCut onto spins: a cut edge (endpoints
// in different sets) has s_u·s_v = −1, so
//
//	C(z) = Σ_e w_e·(1 − s_u·s_v)/2 = m/2 − Σ_e (w_e/2)·s_u·s_v
//
// giving Offset = m/2, J_e = −w_e/2, no linear terms, Sense Maximize.
// The halvings are exact, so for integer edge weights the compiled
// instance evaluates C(z) bit-identically to graph.WeightedCutValue.
func CompileMaxCut(g *graph.Graph) (*Instance, error) {
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("problem: graph with no edges has no MaxCut objective")
	}
	edges := g.Edges()
	weights := g.Weights()
	// The ratio ⟨C⟩/C_opt needs a positive optimum; a mixed-sign graph
	// can still lack one, and qaoa.New refuses it there.
	if !slices.ContainsFunc(weights, func(w float64) bool { return w > 0 }) {
		return nil, fmt.Errorf("problem: graph with no positive edge weight has no positive cut")
	}
	in := &Instance{
		Family: FamilyMaxCut,
		Sense:  Maximize,
		N:      g.N,
		Vars:   g.N,
		Offset: g.TotalWeight() / 2,
		Quad:   make([]Term, len(edges)),
	}
	for i, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		in.Quad[i] = Term{I: u, J: v, W: -weights[i] / 2}
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// Clause is one weighted-SAT clause in DIMACS convention: literal
// l > 0 means variable x_{l−1}, l < 0 means its negation.
type Clause []int

// Formula is a weighted Max-k-SAT instance (k ≤ 3): maximize the total
// weight of satisfied clauses, equivalently minimize the unsatisfied
// weight — the form the compiler emits.
type Formula struct {
	Vars    int
	Clauses []Clause
	Weights []float64 // parallel to Clauses; nil = all 1
}

// Validate checks literal ranges, clause sizes (1..3), repeated
// variables within a clause, and clause weights.
func (f *Formula) Validate() error {
	if f.Vars < 1 {
		return fmt.Errorf("problem: formula over %d variables", f.Vars)
	}
	// Compiling allocates per variable, and Vars is a bare number in a
	// request or a file: cap it at the widest register anything can
	// evaluate before it sizes an allocation.
	if f.Vars > BruteForceMaxQubits {
		return fmt.Errorf("problem: formula over %d variables exceeds the %d-qubit limit", f.Vars, BruteForceMaxQubits)
	}
	if len(f.Clauses) == 0 {
		return fmt.Errorf("problem: formula has no clauses")
	}
	if f.Weights != nil && len(f.Weights) != len(f.Clauses) {
		return fmt.Errorf("problem: %d weights for %d clauses", len(f.Weights), len(f.Clauses))
	}
	for ci, cl := range f.Clauses {
		if len(cl) < 1 || len(cl) > 3 {
			return fmt.Errorf("problem: clause %d has %d literals (supported: 1..3)", ci, len(cl))
		}
		seen := map[int]bool{}
		for _, l := range cl {
			if l == 0 {
				return fmt.Errorf("problem: clause %d has literal 0", ci)
			}
			// Compared without negating: −MinInt64 is still negative.
			if l < -f.Vars || l > f.Vars {
				return fmt.Errorf("problem: clause %d literal %d out of range for %d variables", ci, l, f.Vars)
			}
			v := l
			if v < 0 {
				v = -v
			}
			if seen[v] {
				return fmt.Errorf("problem: clause %d repeats variable %d", ci, v)
			}
			seen[v] = true
		}
		if f.Weights != nil {
			w := f.Weights[ci]
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("problem: clause %d has invalid weight %v", ci, w)
			}
		}
	}
	return nil
}

func (f *Formula) weight(ci int) float64 {
	if f.Weights == nil {
		return 1
	}
	return f.Weights[ci]
}

// UnsatWeight evaluates the classical objective at assignment z (bit
// i of z is the truth value of variable x_i): the total weight of
// unsatisfied clauses.
func (f *Formula) UnsatWeight(z uint64) float64 {
	total := 0.0
	for ci, cl := range f.Clauses {
		sat := false
		for _, l := range cl {
			v := l
			if v < 0 {
				v = -v
			}
			bit := (z >> uint(v-1)) & 1
			if (l > 0) == (bit == 1) {
				sat = true
				break
			}
		}
		if !sat {
			total += f.weight(ci)
		}
	}
	return total
}

// falseIndicator returns the affine form of "literal l is false":
// 1 − x for a positive literal, x for a negative one.
func falseIndicator(l int) Affine {
	if l > 0 {
		return Affine{Var: l - 1, A: 1, B: -1}
	}
	return Affine{Var: -l - 1, A: 0, B: 1}
}

// CompileMaxKSAT builds the penalty Hamiltonian minimizing the
// unsatisfied weight. A clause with false-indicators y_1..y_k incurs
// penalty W·Π y_i. For k ≤ 2 the product is at most quadratic; k = 3
// uses one auxiliary binary variable w per clause via the Rosenberg
// quadratization
//
//	y1·y2·y3 = min_w [ w·y3 + y1·y2 − 2w·y1 − 2w·y2 + 3w ]
//
// which is exact after minimizing over w for every (y1, y2, y3), so the
// ground state of the compiled instance is the Max-k-SAT optimum.
// Auxiliary variables are appended after the decision variables
// (Instance.Vars = Formula.Vars).
func CompileMaxKSAT(f *Formula) (*Instance, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	aux := 0
	for _, cl := range f.Clauses {
		if len(cl) == 3 {
			aux++
		}
	}
	q := NewQUBO(f.Vars+aux, Minimize)
	nextAux := f.Vars
	for ci, cl := range f.Clauses {
		w := f.weight(ci)
		switch len(cl) {
		case 1:
			q.AddProduct(w, falseIndicator(cl[0]))
		case 2:
			q.AddProduct(w, falseIndicator(cl[0]), falseIndicator(cl[1]))
		case 3:
			y1, y2, y3 := falseIndicator(cl[0]), falseIndicator(cl[1]), falseIndicator(cl[2])
			a := Affine{Var: nextAux, A: 0, B: 1}
			nextAux++
			q.AddProduct(w, a, y3)
			q.AddProduct(w, y1, y2)
			q.AddProduct(-2*w, a, y1)
			q.AddProduct(-2*w, a, y2)
			q.AddProduct(3*w, a)
		}
	}
	return q.ToIsing(FamilyMaxKSAT, f.Vars)
}

// The payload-size errors Compile and Spec.Qubits share.
var (
	errPartitionSize    = errors.New("problem: number partitioning needs at least 2 numbers")
	errPortfolioSize    = errors.New("problem: portfolio needs at least 2 assets")
	errPortfolioPayload = errors.New("problem: portfolio spec has no payload")
)

// CompilePartition maps number partitioning — split positive numbers
// into two sets minimizing the difference of sums — onto spins:
// minimize D(z)² with D = Σ_i w_i·s_i, i.e.
//
//	D² = Σ_i w_i² + Σ_{i<j} 2·w_i·w_j·s_i·s_j
//
// so Offset = Σ w_i², J_ij = 2·w_i·w_j (dense), Sense Minimize. The
// optimum is 0 exactly when a perfect partition exists.
func CompilePartition(numbers []float64) (*Instance, error) {
	n := len(numbers)
	if n < 2 {
		return nil, errPartitionSize
	}
	offset := 0.0
	for i, w := range numbers {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("problem: invalid number[%d] = %v", i, w)
		}
		offset += w * w
	}
	in := &Instance{
		Family: FamilyPartition,
		Sense:  Minimize,
		N:      n,
		Vars:   n,
		Offset: offset,
		Quad:   make([]Term, 0, n*(n-1)/2),
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			in.Quad = append(in.Quad, Term{I: i, J: j, W: 2 * numbers[i] * numbers[j]})
		}
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// PortfolioSpec is a binary portfolio-selection instance: pick assets
// x ∈ {0,1}^n minimizing risk-adjusted cost λ·xᵀΣx − μᵀx with a soft
// budget constraint A·(Σ x_i − B)².
type PortfolioSpec struct {
	Returns      []float64   // expected returns μ
	Covariance   [][]float64 // symmetric risk matrix Σ
	RiskAversion float64     // λ > 0
	Budget       int         // target cardinality B
	Penalty      float64     // budget penalty A; 0 = auto-scale
}

// Validate checks dimensions, symmetry and parameter ranges.
func (p *PortfolioSpec) Validate() error {
	n := len(p.Returns)
	if n < 2 {
		return errPortfolioSize
	}
	if len(p.Covariance) != n {
		return fmt.Errorf("problem: covariance is %dx? for %d assets", len(p.Covariance), n)
	}
	for i, row := range p.Covariance {
		if len(row) != n {
			return fmt.Errorf("problem: covariance row %d has %d entries for %d assets", i, len(row), n)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("problem: non-finite covariance[%d][%d]", i, j)
			}
			if mirror := p.Covariance[j]; i >= len(mirror) { // a later row too short to mirror this entry
				return fmt.Errorf("problem: covariance row %d has %d entries for %d assets", j, len(mirror), n)
			}
			if math.Abs(v-p.Covariance[j][i]) > 1e-9*(1+math.Abs(v)) {
				return fmt.Errorf("problem: covariance not symmetric at (%d,%d)", i, j)
			}
		}
	}
	for i, r := range p.Returns {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("problem: non-finite return[%d]", i)
		}
	}
	if p.RiskAversion <= 0 || math.IsNaN(p.RiskAversion) || math.IsInf(p.RiskAversion, 0) {
		return fmt.Errorf("problem: risk aversion %v must be positive", p.RiskAversion)
	}
	if p.Budget < 1 || p.Budget >= n {
		return fmt.Errorf("problem: budget %d out of [1, %d)", p.Budget, n)
	}
	if p.Penalty < 0 || math.IsNaN(p.Penalty) || math.IsInf(p.Penalty, 0) {
		return fmt.Errorf("problem: invalid penalty %v", p.Penalty)
	}
	return nil
}

// penaltyScale returns the budget penalty: the explicit one, or an
// auto-scale dominating the largest possible per-asset gain so the
// constraint is never worth violating by much.
func (p *PortfolioSpec) penaltyScale() float64 {
	if p.Penalty > 0 {
		return p.Penalty
	}
	scale := 1.0
	for i, r := range p.Returns {
		rowAbs := 0.0
		for _, v := range p.Covariance[i] {
			rowAbs += math.Abs(v)
		}
		if c := math.Abs(r) + p.RiskAversion*rowAbs; c > scale {
			scale = c
		}
	}
	return 2 * scale
}

// Objective evaluates the classical portfolio cost at assignment z.
func (p *PortfolioSpec) Objective(z uint64) float64 {
	n := len(p.Returns)
	cost, count := 0.0, 0
	for i := 0; i < n; i++ {
		if (z>>uint(i))&1 == 0 {
			continue
		}
		count++
		cost -= p.Returns[i]
		for j := 0; j < n; j++ {
			if (z>>uint(j))&1 == 1 {
				cost += p.RiskAversion * p.Covariance[i][j]
			}
		}
	}
	d := float64(count - p.Budget)
	return cost + p.penaltyScale()*d*d
}

// CompilePortfolio expands the quadratic cost into a QUBO (x_i² = x_i
// folds diagonal covariance and the budget square's diagonal into
// linear terms) and converts to spins.
func CompilePortfolio(p *PortfolioSpec) (*Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Returns)
	a := p.penaltyScale()
	q := NewQUBO(n, Minimize)
	q.AddConstant(a * float64(p.Budget) * float64(p.Budget))
	for i := 0; i < n; i++ {
		q.AddLinear(i, -p.Returns[i]+p.RiskAversion*p.Covariance[i][i]+a*(1-2*float64(p.Budget)))
		for j := i + 1; j < n; j++ {
			q.AddQuadratic(i, j, 2*(p.RiskAversion*p.Covariance[i][j]+a))
		}
	}
	return q.ToIsing(FamilyPortfolio, n)
}

// CompileColoring maps graph k-coloring onto n·k one-hot qubits
// x_{v,c} = x[v·k + c] with penalty
//
//	A·Σ_v (1 − Σ_c x_{v,c})² + B·Σ_{(u,v)∈E} Σ_c x_{u,c}·x_{v,c}
//
// (A = B = 1 by default): the ground-state value is 0 exactly when the
// graph is k-colorable. Sense Minimize.
func CompileColoring(g *graph.Graph, colors int, penaltyA, penaltyB float64) (*Instance, error) {
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("problem: graph with no edges has a trivial coloring")
	}
	if colors < 2 {
		return nil, fmt.Errorf("problem: coloring needs at least 2 colors, got %d", colors)
	}
	if penaltyA <= 0 {
		penaltyA = 1
	}
	if penaltyB <= 0 {
		penaltyB = 1
	}
	n := g.N * colors
	q := NewQUBO(n, Minimize)
	// (1 − Σ_c x_c)² = 1 − Σ_c x_c + 2·Σ_{c<c'} x_c·x_c' (using x² = x).
	for v := 0; v < g.N; v++ {
		q.AddConstant(penaltyA)
		for c := 0; c < colors; c++ {
			q.AddLinear(v*colors+c, -penaltyA)
			for c2 := c + 1; c2 < colors; c2++ {
				q.AddQuadratic(v*colors+c, v*colors+c2, 2*penaltyA)
			}
		}
	}
	for _, e := range g.Edges() {
		for c := 0; c < colors; c++ {
			q.AddQuadratic(e.U*colors+c, e.V*colors+c, penaltyB)
		}
	}
	return q.ToIsing(FamilyColoring, n)
}

// ColoringObjective evaluates the classical coloring penalty at
// assignment z (for cross-checking the compiled instance).
func ColoringObjective(g *graph.Graph, colors int, penaltyA, penaltyB float64, z uint64) float64 {
	if penaltyA <= 0 {
		penaltyA = 1
	}
	if penaltyB <= 0 {
		penaltyB = 1
	}
	total := 0.0
	for v := 0; v < g.N; v++ {
		count := 0
		for c := 0; c < colors; c++ {
			if (z>>uint(v*colors+c))&1 == 1 {
				count++
			}
		}
		d := float64(1 - count)
		total += penaltyA * d * d
	}
	for _, e := range g.Edges() {
		for c := 0; c < colors; c++ {
			if (z>>uint(e.U*colors+c))&1 == 1 && (z>>uint(e.V*colors+c))&1 == 1 {
				total += penaltyB
			}
		}
	}
	return total
}
