// Package qaoa implements the Quantum Approximate Optimization Algorithm
// as the paper's circuits do: a Hadamard layer, then p stages each made
// of a phase-separation layer (CNOT·RZ·CNOT per coupling, RZ per field)
// and a mixing layer (RX(2β) per qubit, i.e. exp(−iβ Σ Xi)).
//
// Every problem family — the paper's MaxCut (J = −w/2, no field), QUBO,
// Max-k-SAT, partition, portfolio, coloring — compiles to one Ising
// Hamiltonian, a problem.Instance, and New is the one constructor. The
// instance is evaluated by one of two kernels chosen by its size and its
// phase table (ising.go): a materialized table with memoized phases
// below StreamingThreshold (workspace.go), chunk-streamed generation
// from the term lists from it (ising_stream.go) — and below it too for
// float coefficients whose phase values are mostly distinct, whose
// phases the stream kernel builds by doubling. QAOA always maximizes
// Score(z) = sense·Value(z).
//
// Parameter conventions follow Farhi et al. (the paper's reference [1]):
// the stage angles are γi ∈ [0, 2π] and βi ∈ [0, π]. A parameter vector
// is laid out as [γ1..γp, β1..βp].
package qaoa

import (
	"fmt"
	"math"
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

// Problem is a compiled Hamiltonian prepared for QAOA evaluation: the
// Ising instance every kernel reads, and the exact Score extremes that
// approximation ratios are taken against. No state-sized table lives
// here: the kernel (built on first evaluation) holds one only below
// StreamingThreshold, and only when it memoizes, and an instance without
// linear terms — every
// MaxCut, every partition — evolves as a half register of 2^(n−1)
// amplitudes (workspace.go), so an n = 20 MaxCut workspace is an 8 MiB
// state and nothing else.
type Problem struct {
	Spec problem.Spec
	Inst *problem.Instance // the compiled Hamiltonian; always set
	// Graph is what a MaxCut problem was built from, nil for every other
	// family. It selects MaxCut's two family policies (ratioOf,
	// Canonicalize) and nothing about evaluation.
	Graph    *graph.Graph
	OptValue float64 // exact best Score; for MaxCut the optimum's directly summed cut weight
	MinScore float64 // exact worst Score, the floor of the normalized-score ratio

	// The evaluation kernel (workspace.go), built on first use.
	kernOnce sync.Once
	kern     costKernel
	pool     wsPool
}

// New builds an evaluation-ready Problem from a problem spec: compile
// it, then find the exact Score extremes by the instance's gray-code
// scan — so the register is capped at problem.BruteForceMaxQubits;
// approximation ratios are undefined without the true optimum.
//
// MaxCut keeps the paper's ratio ⟨C⟩/C_opt, so its optimum is stored as
// the directly summed cut weight of the assignment the scan lands on,
// and a graph whose optimum is not positive (no edges, all-negative
// weights) is rejected: the ratio would be meaningless.
func New(spec problem.Spec) (*Problem, error) {
	in, err := spec.Compile() // validated by every compiler
	if err != nil {
		return nil, err
	}
	if in.N > problem.BruteForceMaxQubits {
		return nil, fmt.Errorf("qaoa: %d-qubit instance exceeds the %d-qubit exact-optimum limit", in.N, problem.BruteForceMaxQubits)
	}
	opt, worst, arg := in.BruteForce()
	sign := in.Sense.Sign()
	pb := &Problem{Spec: spec, Inst: in, OptValue: sign * opt, MinScore: sign * worst}
	if spec.Family == problem.FamilyMaxCut {
		pb.Graph = spec.Graph
		pb.OptValue = spec.Graph.WeightedCutValue(arg)
		if pb.OptValue <= 0 {
			return nil, fmt.Errorf("qaoa: MaxCut optimum %v is not positive; approximation ratio undefined", pb.OptValue)
		}
		return pb, nil
	}
	if pb.OptValue <= pb.MinScore {
		return nil, fmt.Errorf("qaoa: constant objective (score range [%v, %v]); nothing to optimize", pb.MinScore, pb.OptValue)
	}
	return pb, nil
}

// NewProblem is New for a (possibly weighted) MaxCut graph.
func NewProblem(g *graph.Graph) (*Problem, error) { return New(problem.MaxCut(g)) }

// NewIsing is New for a pre-built Ising Hamiltonian.
func NewIsing(in *problem.Instance) (*Problem, error) { return New(problem.FromInstance(in)) }

// NumQubits returns the compiled register width: the decision variables
// plus any quadratization auxiliaries.
func (pb *Problem) NumQubits() int { return pb.Inst.N }

// halfRegister reports whether workspaces evolve the problem as a half
// register: its Hamiltonian has no linear term.
func (pb *Problem) halfRegister() bool { return pb.Inst.FieldFree() }

// stateQubits returns the width of the register a workspace evolves,
// the length quantum.ParallelDim is held against.
func (pb *Problem) stateQubits() int {
	if pb.halfRegister() {
		return pb.NumQubits() - 1
	}
	return pb.NumQubits()
}

// GateState returns |ψ(γ, β)⟩ built gate by gate from |0…0⟩, the test
// oracle of the fast path: H on all qubits, then per stage the phase
// separator — RZ(2γ·sense·h) per qubit with a field,
// CNOT·RZ(2γ·sense·J)·CNOT per coupling — followed by RX(2β) mixers.
// With RZ(θ) = diag(e^{−iθ/2}, e^{+iθ/2}), basis state z picks up
// exactly e^{iγ·gen(z)}, the fast path's convention, global phase
// included. For MaxCut (sense +1, J = −w/2) the coupling gate is
// RZ(−γw): the circuit of the paper's Fig. 1(a).
func (pb *Problem) GateState(pr Params) *quantum.State {
	if err := pr.Validate(false); err != nil {
		panic(err)
	}
	in := pb.Inst
	sign := in.Sense.Sign()
	s := quantum.NewState(in.N)
	for q := 0; q < in.N; q++ {
		s.H(q)
	}
	for st := 0; st < pr.Depth(); st++ {
		for q, h := range in.Linear {
			if h != 0 {
				s.RZ(q, 2*pr.Gamma[st]*sign*h)
			}
		}
		for _, t := range in.Quad {
			s.CNOT(t.I, t.J)
			s.RZ(t.J, 2*pr.Gamma[st]*sign*t.W)
			s.CNOT(t.I, t.J)
		}
		for q := 0; q < in.N; q++ {
			s.RX(q, 2*pr.Beta[st])
		}
	}
	return s
}

// State returns |ψ(γ, β)⟩ using the fast diagonal phase-separator path
// (distinct-value memoized phases, fused mixing kernel — see
// workspace.go), always as the full 2^n-amplitude register. The result
// matches GateState(pr) to rounding error, including global phase.
func (pb *Problem) State(pr Params) *quantum.State {
	if err := pr.Validate(false); err != nil {
		panic(err)
	}
	return prepareState(pb.kernel(), pr.Gamma, pr.Beta)
}

// Expectation returns ⟨ψ(γ, β)|C|ψ(γ, β)⟩, the expected Score (cut
// weight for MaxCut). It is safe for concurrent use: evaluation buffers
// come from an internal pool. Evaluation loops should prefer an
// Evaluator or EvalWorkspace, which reuse one buffer set without pool
// round-trips.
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
// every other family, whose raw Score can be negative and whose plain
// ratio would be meaningless.
func (pb *Problem) ApproximationRatio(pr Params) float64 {
	return pb.ratioOf(pb.Expectation(pr))
}

// ratioOf maps an expectation onto the family's quality ratio — the
// shared arithmetic behind Problem.ApproximationRatio and
// Evaluator.ApproximationRatio, so both report bit-identical ratios for
// the same expectation value.
func (pb *Problem) ratioOf(e float64) float64 {
	if pb.Graph != nil {
		return e / pb.OptValue
	}
	return pb.NormalizedScore(e)
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
// arena-drawn buffers to their arena. The evaluator must not be used
// afterwards.
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

// NGev returns the number of adjoint gradient evaluations so far.
func (e *Evaluator) NGev() int { return e.ngev }
