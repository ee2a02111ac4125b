// Package qaoa implements the Quantum Approximate Optimization Algorithm
// for graph MaxCut exactly as the paper's circuits do: a Hadamard layer,
// then p stages each made of a phase-separation layer (CNOT·RZ(−γ)·CNOT
// per edge, equivalently exp(iγ Z⊗Z/2)) and a mixing layer (RX(2β) per
// qubit, i.e. exp(−iβ Σ Xi)).
//
// Parameter conventions follow Farhi et al. (the paper's reference [1]):
// the stage angles are γi ∈ [0, 2π] and βi ∈ [0, π]. A parameter vector
// is laid out as [γ1..γp, β1..βp].
package qaoa

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"

	"qaoaml/internal/graph"
	"qaoaml/internal/problem"
	"qaoaml/internal/quantum"
)

// Domain bounds from the paper (Sec. III-A).
const (
	GammaMax = 2 * math.Pi // γi ∈ [0, 2π]
	BetaMax  = math.Pi     // βi ∈ [0, π]
)

// Params holds the 2p stage angles of a depth-p QAOA instance.
type Params struct {
	Gamma []float64 // phase-separation angles, one per stage
	Beta  []float64 // mixing angles, one per stage
}

// NewParams allocates zeroed parameters for depth p.
func NewParams(p int) Params {
	return Params{Gamma: make([]float64, p), Beta: make([]float64, p)}
}

// Depth returns the number of stages p.
func (pr Params) Depth() int { return len(pr.Gamma) }

// Vector flattens the parameters to [γ1..γp, β1..βp].
func (pr Params) Vector() []float64 {
	p := pr.Depth()
	v := make([]float64, 2*p)
	copy(v, pr.Gamma)
	copy(v[p:], pr.Beta)
	return v
}

// FromVector splits a flat [γ1..γp, β1..βp] vector into Params.
// It panics for odd-length input.
func FromVector(v []float64) Params {
	if len(v)%2 != 0 {
		panic(fmt.Sprintf("qaoa: parameter vector of odd length %d", len(v)))
	}
	p := len(v) / 2
	pr := NewParams(p)
	copy(pr.Gamma, v[:p])
	copy(pr.Beta, v[p:])
	return pr
}

// Validate checks lengths and (optionally) the paper's domain bounds.
func (pr Params) Validate(checkDomain bool) error {
	if len(pr.Gamma) != len(pr.Beta) {
		return fmt.Errorf("qaoa: gamma/beta length mismatch %d != %d", len(pr.Gamma), len(pr.Beta))
	}
	if !checkDomain {
		return nil
	}
	for i, g := range pr.Gamma {
		if g < 0 || g > GammaMax {
			return fmt.Errorf("qaoa: gamma[%d] = %v out of [0, 2π]", i, g)
		}
	}
	for i, b := range pr.Beta {
		if b < 0 || b > BetaMax {
			return fmt.Errorf("qaoa: beta[%d] = %v out of [0, π]", i, b)
		}
	}
	return nil
}

// Problem is a (possibly weighted) MaxCut instance prepared for QAOA
// evaluation: the graph, the cost diagonal C(z) (cut weight per
// computational basis state), and the exact optimum used for
// approximation ratios.
//
// CutTable is only materialized for small instances (n <
// StreamingThreshold). Above the threshold it stays nil and every
// evaluation streams C(z) from the edge list (see stream.go), so the
// per-problem memory footprint is the state vector alone — and that is
// 2^(n−1) amplitudes for MaxCut and every other Hamiltonian without
// linear terms, which evolve as a half register (see workspace.go): an
// n = 20 MaxCut workspace holds an 8 MiB state, no cost table and no
// index table. Use CutValue for point lookups; it works in both modes.
type Problem struct {
	Graph       *graph.Graph
	CutTable    []float64 // nil in streaming mode
	OptValue    float64   // exact optimum: MaxCut weight, or best Score for Ising problems
	TotalWeight float64   // sum of all edge weights (MaxCut problems only)

	// Generic-Hamiltonian fields (New / NewIsing). For non-MaxCut
	// families Graph is nil, Inst holds the compiled Ising instance and
	// evaluation runs through the Ising kernels (ising.go); MinScore is
	// the exact worst Score, the floor of the normalized-score ratio.
	Spec     problem.Spec
	Inst     *problem.Instance
	MinScore float64

	// compiled is the graph's Ising form, kept from NewProblem's optimum
	// scan for the depth-1 closed form (see ising).
	compiled *problem.Instance

	// Fast-path precomputation (see workspace.go), built lazily so any
	// correctly-populated Problem value gets it on first evaluation.
	kernOnce sync.Once
	kern     costKernel
	pool     wsPool
}

// NewProblem precomputes the cost table (small instances only — see
// Problem) and the exact MaxCut optimum. It returns an error for graphs
// with no edges (AR undefined) or a non-positive optimum (all-negative
// weights make AR meaningless). The optimum is found by the compiled
// instance's gray-code walk (O(degree) per assignment, where
// graph.WeightedMaxCut re-sums every edge) and stored as the directly
// summed cut weight of the assignment it lands on.
func NewProblem(g *graph.Graph) (*Problem, error) {
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("qaoa: graph with no edges has no MaxCut objective")
	}
	in, err := problem.CompileMaxCut(g)
	if err != nil {
		return nil, err
	}
	_, _, arg := in.BruteForce()
	opt := g.WeightedCutValue(arg)
	if opt <= 0 {
		return nil, fmt.Errorf("qaoa: MaxCut optimum %v is not positive; approximation ratio undefined", opt)
	}
	pb := &Problem{
		Graph:       g,
		OptValue:    opt,
		TotalWeight: g.TotalWeight(),
		Spec:        problem.MaxCut(g),
		compiled:    in,
	}
	if g.N < StreamingThreshold {
		pb.CutTable = g.WeightedCutTable()
	}
	return pb, nil
}

// CutValue returns C(z), the cut weight of assignment z — a table
// lookup when the table is materialized, an edge-list scan in streaming
// mode.
func (pb *Problem) CutValue(z uint64) float64 {
	if pb.CutTable != nil {
		return pb.CutTable[z]
	}
	return pb.Graph.WeightedCutValue(z)
}

// costDiagonal returns the materialized cost diagonal, computing a
// fresh table in streaming mode. Only gate-level consumers that
// genuinely need all 2^n entries (the noisy trajectory sampler) call
// it; the evaluation hot paths never do.
func (pb *Problem) costDiagonal() []float64 {
	if pb.Inst != nil {
		diag, _ := buildIsingTables(pb.Inst, 1<<uint(pb.Inst.N))
		return diag
	}
	if pb.CutTable != nil {
		return pb.CutTable
	}
	return pb.Graph.WeightedCutTable()
}

// NumQubits returns the register width: one qubit per vertex for
// MaxCut, the compiled register (decision variables plus any
// quadratization auxiliaries) for Ising problems.
func (pb *Problem) NumQubits() int {
	if pb.Inst != nil {
		return pb.Inst.N
	}
	return pb.Graph.N
}

// halfRegister reports whether workspaces evolve the problem as a half
// register: its Hamiltonian has no linear term, which a cut never has.
func (pb *Problem) halfRegister() bool {
	return pb.Inst == nil || pb.Inst.FieldFree()
}

// stateQubits returns the width of the register a workspace evolves,
// the length ShardThreshold and quantum.ParallelDim are held against.
func (pb *Problem) stateQubits() int {
	if pb.halfRegister() {
		return pb.NumQubits() - 1
	}
	return pb.NumQubits()
}

// BuildCircuit constructs the explicit gate-level QAOA circuit for the
// given parameters: H on all qubits, then per stage the CNOT·RZ(−γ)·CNOT
// phase separator per edge followed by RX(2β) mixers. This is the
// circuit of the paper's Fig. 1(a).
func (pb *Problem) BuildCircuit(pr Params) *quantum.Circuit {
	if err := pr.Validate(false); err != nil {
		panic(err)
	}
	n := pb.NumQubits()
	c := quantum.NewCircuit(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	if pb.Inst != nil {
		for s := 0; s < pr.Depth(); s++ {
			pb.isingCircuit(c, pr.Gamma[s])
			for q := 0; q < n; q++ {
				c.RX(q, 2*pr.Beta[s])
			}
		}
		return c
	}
	edges := pb.Graph.Edges()
	weights := pb.Graph.Weights()
	for s := 0; s < pr.Depth(); s++ {
		for i, e := range edges {
			c.CNOT(e.U, e.V)
			c.RZ(e.V, -pr.Gamma[s]*weights[i])
			c.CNOT(e.U, e.V)
		}
		for q := 0; q < n; q++ {
			c.RX(q, 2*pr.Beta[s])
		}
	}
	return c
}

// State returns |ψ(γ, β)⟩ using the fast diagonal phase-separator path
// (distinct-cut memoized phases, fused mixing kernel — see
// workspace.go), always as the full 2^n-amplitude register. The result
// matches BuildCircuit(pr).Simulate() to rounding error, including
// global phase.
func (pb *Problem) State(pr Params) *quantum.State {
	if err := pr.Validate(false); err != nil {
		panic(err)
	}
	return prepareState(pb.kernel(), pr.Gamma, pr.Beta)
}

// Expectation returns ⟨ψ(γ, β)|C|ψ(γ, β)⟩, the expected cut size. It is
// safe for concurrent use: evaluation buffers come from an internal
// pool. Evaluation loops should prefer an Evaluator or EvalWorkspace,
// which reuse one buffer set without pool round-trips.
func (pb *Problem) Expectation(pr Params) float64 {
	if err := pr.Validate(false); err != nil {
		panic(err)
	}
	w := pb.pool.get(pb.kernel())
	e := w.expectation(pr.Gamma, pr.Beta)
	pb.pool.put(w)
	return e
}

// ApproximationRatio returns the quality ratio for the given
// parameters: ⟨C⟩ / C_opt for MaxCut (the paper's convention), and the
// [0, 1]-normalized score (⟨Score⟩ − worst) / (best − worst) for
// compiled Ising families, whose raw Score can be negative and whose
// plain ratio would be meaningless.
func (pb *Problem) ApproximationRatio(pr Params) float64 {
	return pb.ratioOf(pb.Expectation(pr))
}

// ratioOf maps an expectation onto the family's quality ratio — the
// shared arithmetic behind Problem.ApproximationRatio and
// Evaluator.ApproximationRatio, so both report bit-identical ratios for
// the same expectation value.
func (pb *Problem) ratioOf(e float64) float64 {
	if pb.Inst != nil {
		return pb.NormalizedScore(e)
	}
	return e / pb.OptValue
}

// BestSampledCut returns the most probable basis state's objective and
// the assignment, i.e. the solution a user would read out after
// optimization. For MaxCut problems the objective is the cut weight;
// for compiled Ising families it is the direction-normalized Score
// (see BestSampled, the family-generic name).
func (pb *Problem) BestSampledCut(pr Params) (cut float64, assign uint64) {
	return pb.BestSampled(pr)
}

// Evaluator wraps a Problem as a minimization objective over the flat
// parameter vector and counts quantum-computer calls (the paper's
// "function calls" / "QC calls" / loop iterations). Every call counts
// the same way at every depth; how a call is answered differs:
//
//   - Depth ≥ 2 owns an EvalWorkspace and simulates the circuit.
//   - Depth 1 evaluates the closed form of depth1.go and holds no state
//     buffer; a workspace is built only if BestSampled asks for the
//     amplitudes.
//
// Either way NegExpectation and NegValueGrad perform no heap allocation
// after warm-up; an Evaluator is not safe for concurrent use — create
// one per goroutine.
type Evaluator struct {
	Problem *Problem
	Depth   int
	nfev    int
	ngev    int
	d1      *depth1        // Depth == 1 only
	ws      *EvalWorkspace // nil at depth 1 until BestSampled needs it
	arena   *Arena
}

// NewEvaluator returns an evaluator for a fixed circuit depth p ≥ 1.
func NewEvaluator(pb *Problem, p int) *Evaluator {
	return NewEvaluatorArena(pb, p, nil)
}

// NewEvaluatorArena is NewEvaluator drawing the workspace's
// state-vector buffers from the arena (nil behaves like NewEvaluator).
// Results are bit-identical; only the buffers' provenance changes.
// Call Release when done so the buffers return to the arena.
func NewEvaluatorArena(pb *Problem, p int, a *Arena) *Evaluator {
	if p < 1 {
		panic(fmt.Sprintf("qaoa: depth %d < 1", p))
	}
	e := &Evaluator{Problem: pb, Depth: p, arena: a}
	if p == 1 {
		e.d1 = newDepth1(pb)
	} else {
		e.ws = pb.NewWorkspaceArena(a)
	}
	return e
}

// workspace returns the state-vector workspace, building it on first
// use (only a depth-1 evaluator starts without one).
func (e *Evaluator) workspace() *EvalWorkspace {
	if e.ws == nil {
		e.ws = e.Problem.NewWorkspaceArena(e.arena)
	}
	return e.ws
}

// Release retires the evaluator's workspace, if it built one, returning
// arena-drawn buffers to their arena (closing shard workers otherwise).
// The evaluator must not be used afterwards.
func (e *Evaluator) Release() {
	if e.ws != nil {
		e.ws.Release()
	}
}

// ApproximationRatio returns the quality ratio at the given parameters
// through the evaluator's own engine: at depth ≥ 2 bit-identical to
// Problem.ApproximationRatio (same kernel, same chunk geometry) but
// with no pool round-trip and no buffer allocation; at depth 1 the
// closed form, equal to it to rounding.
func (e *Evaluator) ApproximationRatio(pr Params) float64 {
	if e.d1 != nil && len(pr.Gamma) == 1 && len(pr.Beta) == 1 {
		v, _, _ := e.d1.eval(pr.Gamma[0], pr.Beta[0])
		return e.Problem.ratioOf(v)
	}
	return e.Problem.ratioOf(e.workspace().Expectation(pr))
}

// BestSampled returns the most probable basis state's Score and
// assignment at the given parameters, reusing the evaluator's
// workspace — the allocation-free analogue of Problem.BestSampled
// (which builds a transient workspace per call). Ties resolve to the
// lowest basis index in both, so the readouts agree exactly.
func (e *Evaluator) BestSampled(pr Params) (score float64, assign uint64) {
	if err := pr.Validate(false); err != nil {
		panic(err)
	}
	ws := e.workspace()
	ws.runLayers(pr.Gamma, pr.Beta)
	assign = ws.argmax()
	return e.Problem.ScoreValue(assign), assign
}

// Dim returns the number of optimization variables, 2p.
func (e *Evaluator) Dim() int { return 2 * e.Depth }

// NegExpectation is the minimization objective −⟨C⟩ over the flat
// parameter vector [γ1..γp, β1..βp]. Each call counts one QC call.
func (e *Evaluator) NegExpectation(x []float64) float64 {
	if len(x) != e.Dim() {
		panic(fmt.Sprintf("qaoa: parameter vector length %d != 2p = %d", len(x), e.Dim()))
	}
	e.nfev++
	if e.d1 != nil {
		v, _, _ := e.d1.eval(x[0], x[1])
		return -v
	}
	return -e.ws.ExpectationVec(x)
}

// NegGrad fills grad with the exact gradient of the minimization
// objective −⟨C⟩ at x — one adjoint reverse sweep (see gradient.go),
// or the closed form's own derivative at depth 1 — with no finite
// differences and no function calls counted. Each call counts one
// gradient evaluation (NGev). Warm calls perform no heap allocation.
func (e *Evaluator) NegGrad(x, grad []float64) { e.NegValueGrad(x, grad) }

// NegValueGrad is NegGrad returning −⟨C⟩ as well; the value is
// bit-identical to NegExpectation(x) (same forward pass, same closed
// form) but does not count a QC call, only a gradient evaluation.
func (e *Evaluator) NegValueGrad(x, grad []float64) float64 {
	if len(x) != e.Dim() {
		panic(fmt.Sprintf("qaoa: parameter vector length %d != 2p = %d", len(x), e.Dim()))
	}
	e.ngev++
	if e.d1 != nil {
		if len(grad) != 2 {
			panic(fmt.Sprintf("qaoa: gradient length %d != parameter length 2", len(grad)))
		}
		v, dg, db := e.d1.eval(x[0], x[1])
		grad[0], grad[1] = -dg, -db
		return -v
	}
	v := e.ws.ValueGrad(x, grad)
	for i := range grad {
		grad[i] = -grad[i]
	}
	return -v
}

// ForwardPasses returns how many times the evaluator has simulated the
// circuit. At depth ≥ 2 NegExpectation always does, and a gradient does
// only when the workspace's last evaluation was not at its x, so an
// L-BFGS-B or SLSQP run reads NFev here, not NFev + NGev. A depth-1
// optimizer run reads 0: the closed form answers every call, and only
// BestSampled simulates.
func (e *Evaluator) ForwardPasses() int {
	if e.ws == nil {
		return 0
	}
	return e.ws.forwardPasses
}

// NFev returns the number of QC calls so far.
func (e *Evaluator) NFev() int { return e.nfev }

// ResetNFev zeroes the QC-call counter.
func (e *Evaluator) ResetNFev() { e.nfev = 0 }

// NGev returns the number of adjoint gradient evaluations so far.
func (e *Evaluator) NGev() int { return e.ngev }

// ResetNGev zeroes the gradient-evaluation counter.
func (e *Evaluator) ResetNGev() { e.ngev = 0 }

// UniformState returns the p = 0 state (just the Hadamard layer), whose
// expectation is m/2 — a useful baseline in tests.
func (pb *Problem) UniformState() *quantum.State {
	return quantum.NewUniformState(pb.NumQubits())
}

// GlobalPhaseReference exposes the phase convention used by the fast
// path for verification: for a depth-1 circuit with β = 0 the amplitude
// of basis state z is exp(iγ(m−2C(z))/2)/√dim.
func (pb *Problem) GlobalPhaseReference(gamma float64, z uint64) complex128 {
	dim := float64(int(1) << uint(pb.NumQubits()))
	return cmplx.Exp(complex(0, gamma*(pb.TotalWeight-2*pb.CutValue(z))/2)) * complex(1/math.Sqrt(dim), 0)
}

// NoisyExpectation estimates ⟨C⟩ for the explicit gate-level circuit
// run under a depolarizing noise model, averaged over Monte-Carlo
// trajectories. The paper evaluates noiselessly (QuTiP); this is the
// NISQ-hardware substitute — see quantum.NoiseModel.
func (pb *Problem) NoisyExpectation(pr Params, nm quantum.NoiseModel, trajectories int, rng *rand.Rand) float64 {
	c := pb.BuildCircuit(pr)
	return c.NoisyExpectationDiagonal(pb.costDiagonal(), nm, trajectories, rng)
}
