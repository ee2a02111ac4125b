package qaoa

import (
	"fmt"

	"qaoaml/internal/problem"
	"qaoaml/internal/quantum"
)

// Generic Ising/QUBO front-end. New is the canonical constructor for
// every problem family: MaxCut specs route to the legacy graph kernels
// (bit-identical to NewProblem), every other family compiles to a
// problem.Instance and evaluates through the Ising kernels — the
// materialized table below StreamingThreshold, the streaming kernel
// (ising_stream.go) above it. QAOA always maximizes Score(z) =
// sense·Value(z), so minimization families need no special casing past
// compilation.

// New builds an evaluation-ready Problem from a problem spec.
func New(spec problem.Spec) (*Problem, error) {
	if spec.Family == problem.FamilyMaxCut {
		if spec.Graph == nil {
			return nil, fmt.Errorf("qaoa: maxcut spec has no graph")
		}
		pb, err := NewProblem(spec.Graph)
		if err != nil {
			return nil, err
		}
		pb.Spec = spec
		return pb, nil
	}
	in, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	pb, err := NewIsing(in)
	if err != nil {
		return nil, err
	}
	pb.Spec = spec
	return pb, nil
}

// NewIsing wraps a compiled Ising Hamiltonian for QAOA evaluation. The
// exact Score extremes come from a gray-code brute-force scan, so the
// register is capped at problem.BruteForceMaxQubits — approximation
// ratios are undefined without the true optimum.
func NewIsing(in *problem.Instance) (*Problem, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.N > problem.BruteForceMaxQubits {
		return nil, fmt.Errorf("qaoa: %d-qubit instance exceeds the %d-qubit exact-optimum limit", in.N, problem.BruteForceMaxQubits)
	}
	opt, worst, _ := in.BruteForce()
	sign := in.Sense.Sign()
	pb := &Problem{
		Spec:     problem.FromInstance(in),
		Inst:     in,
		OptValue: sign * opt,   // best Score (QAOA's maximum)
		MinScore: sign * worst, // worst Score (AR floor)
	}
	if pb.OptValue <= pb.MinScore {
		return nil, fmt.Errorf("qaoa: constant objective (score range [%v, %v]); nothing to optimize", pb.MinScore, pb.OptValue)
	}
	return pb, nil
}

// buildIsingTables materializes the Score diagonal and the phase
// generator gen(z) = −sense·(Σ h_i s_i + Σ J_ij s_i s_j) of a small
// instance for z < dim: 2^N, or 2^(N−1) for the lower half a half
// register evolves. Instances with integral doubled coefficients accumulate
// the doubled sum T(z) = Σ(2J)ss + Σ(2h)s in int64 and recover both
// tables by exact halving — the same arithmetic the streaming kernel
// uses, which is what makes materialized and streamed evaluation
// bit-identical (and, for compiled MaxCut, identical to the legacy
// cut-table kernel: T = 2C − m gives gen = (m−2C)/2 and Score = C
// exactly).
func buildIsingTables(in *problem.Instance, dim int) (diag, gen []float64) {
	diag = make([]float64, dim)
	gen = make([]float64, dim)
	sign := in.Sense.Sign()
	senseOffset := sign * in.Offset
	if in.IntegerCoeffs() {
		for z := 0; z < dim; z++ {
			var t int64
			for i, h := range in.Linear {
				if h == 0 {
					continue
				}
				if (z>>uint(i))&1 == 0 {
					t += int64(2 * h)
				} else {
					t -= int64(2 * h)
				}
			}
			for _, q := range in.Quad {
				if (z>>uint(q.I))&1 == (z>>uint(q.J))&1 {
					t += int64(2 * q.W)
				} else {
					t -= int64(2 * q.W)
				}
			}
			half := float64(t) / 2
			diag[z] = senseOffset + sign*half
			gen[z] = -sign * half
		}
		return diag, gen
	}
	for z := 0; z < dim; z++ {
		t := 0.0
		for i, h := range in.Linear {
			if h == 0 {
				continue
			}
			if (z>>uint(i))&1 == 0 {
				t += 2 * h
			} else {
				t -= 2 * h
			}
		}
		for _, q := range in.Quad {
			if (z>>uint(q.I))&1 == (z>>uint(q.J))&1 {
				t += 2 * q.W
			} else {
				t -= 2 * q.W
			}
		}
		diag[z] = senseOffset + sign*(t/2)
		gen[z] = -sign * (t / 2)
	}
	return diag, gen
}

// newIsingKernel picks the evaluation engine for an instance by size,
// mirroring the MaxCut dispatch: materialized tables with memoized
// phase factors below StreamingThreshold, chunk-streamed generation
// above. half builds it over the lower half of the basis states, for a
// half register; the instance must then be FieldFree.
func newIsingKernel(in *problem.Instance, half bool) costKernel {
	n := in.N
	if half {
		n--
	}
	if in.N < StreamingThreshold {
		diag, gen := buildIsingTables(in, 1<<uint(n))
		k := newDiagKernelFromGen(n, diag, gen)
		k.half = half
		return k
	}
	return newIsingStreamKernel(in, half)
}

// ScoreValue returns the direction-normalized objective Score(z) for
// an assignment — cut weight for MaxCut problems, sense·Value for
// compiled instances. This is the quantity QAOA maximizes and the one
// reports should quote.
func (pb *Problem) ScoreValue(z uint64) float64 {
	if pb.Inst != nil {
		return pb.Inst.Score(z)
	}
	return pb.CutValue(z)
}

// BestSampled returns the most probable basis state's Score and
// assignment — the family-generic readout. For compiled families with
// auxiliary qubits (Max-3-SAT quadratization), the assignment still
// spans the full register; mask to Inst.Vars for the decision
// variables.
func (pb *Problem) BestSampled(pr Params) (score float64, assign uint64) {
	if err := pr.Validate(false); err != nil {
		panic(err)
	}
	// A transient workspace, read the way Evaluator.BestSampled reads
	// its own: a half register's most probable index is an assignment
	// with the top bit clear, the lower of the two equally probable
	// complements.
	w := newFlatWorkspace(pb.kernel(), nil)
	w.runLayers(pr.Gamma, pr.Beta)
	assign = w.argmax()
	return pb.ScoreValue(assign), assign
}

// NormalizedScore maps an expectation ⟨Score⟩ onto [0, 1] between the
// instance's exact worst and best Scores — the cross-family analogue
// of the MaxCut approximation ratio (which divides by the optimum
// alone; see ApproximationRatio for the dispatch).
func (pb *Problem) NormalizedScore(e float64) float64 {
	return (e - pb.MinScore) / (pb.OptValue - pb.MinScore)
}

// isingCircuit appends the generic phase separator for one stage: an
// RZ(2γ·sense·h) per qubit with a field, and CNOT·RZ(2γ·sense·J)·CNOT
// per coupling. With RZ(θ) = diag(e^{−iθ/2}, e^{+iθ/2}), basis state z
// picks up exactly e^{iγ·gen(z)} — the fast path's convention, global
// phase included. A compiled MaxCut (sense +1, J = −w/2) emits
// RZ(−γw), the legacy MaxCut circuit gate for gate.
func (pb *Problem) isingCircuit(c *quantum.Circuit, gamma float64) {
	sign := pb.Inst.Sense.Sign()
	for q, h := range pb.Inst.Linear {
		if h != 0 {
			c.RZ(q, 2*gamma*sign*h)
		}
	}
	for _, t := range pb.Inst.Quad {
		c.CNOT(t.I, t.J)
		c.RZ(t.J, 2*gamma*sign*t.W)
		c.CNOT(t.I, t.J)
	}
}
