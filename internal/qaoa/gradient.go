package qaoa

import (
	"fmt"

	"qaoaml/internal/quantum"
)

// Adjoint-mode (reverse-sweep) analytic differentiation of the QAOA
// objective ⟨ψ(γ,β)|C|ψ(γ,β)⟩.
//
// The ansatz is a product of layers, |ψ⟩ = M_p P_p ⋯ M_1 P_1 |+⟩, with
//
//	P_s = exp(iγ_s H_γ),  H_γ = diag(h(z))   (the phase separator;
//	      h(z) is the costKernel's phase generator, the convention
//	      workspace.go applies),
//	M_s = exp(−iβ_s G_X), G_X = Σ_q X_q      (the RX mixing layer).
//
// Writing |φ_s⟩ for the state after stage s and ⟨λ_s| = ⟨ψ|C·(stages
// s+1..p), the product rule gives for every stage
//
//	∂E/∂β_s = 2 Re⟨λ_s|(−i G_X)|φ_s⟩ = 2 Im⟨λ_s|G_X|φ_s⟩,
//	∂E/∂γ_s = 2 Re⟨M_s†λ_s|(i H_γ)|P_s φ_{s−1}⟩
//	        = −2 Im⟨M_s†λ_s|H_γ|P_s φ_{s−1}⟩.
//
// One forward pass prepares |ψ⟩ (and the value ⟨C⟩); the reverse sweep
// seeds λ = C|ψ⟩ and walks s = p..1. A reverse stage is two passes over
// both states: one two-state mixer sweep (quantum.ReverseMixer) that
// un-applies RX(−2β_s) with the forward pass's own butterflies and
// reads Im⟨λ|G_X|φ⟩ off the quadruples it has loaded — every X_q
// commutes with every RX, so a pair's terms may be taken when that
// pair's butterfly runs, as long as φ and λ are un-applied in lockstep
// — and one un-phase pass that takes Im⟨λ|H_γ|φ⟩ and multiplies both
// states by the conjugated phase factors. Every partial is exact, all
// 2p of them for about three forward passes' time independent of p
// (benchmark ladder, qaoa.valuegrad_over_expect: 3.8 → 3.2 at n = 8,
// 4.3 → 3.3 at n = 20 when ΣX moved into the sweep), where central
// finite differences spend 4p evaluations.
//
// On a half register (workspace.go) φ and λ are both the lower halves of
// X⊗n-symmetric vectors, scaled by √2, so every matrix element above is
// the same sum over the stored half; the dropped qubit's X term comes
// out of the mixer sweep's mirror pass.
//
// State reuse: ValueGrad(x) directly after an evaluation at x on the
// same workspace skips the forward pass — L-BFGS-B and SLSQP always
// ask for the gradient at the point their line search just accepted,
// so in an optimizer run every gradient is a reverse sweep only.
// Nothing else is ever skipped: Expectation, ExpectationVec and
// BestSampled always simulate the circuit. See DESIGN.md, "Adjoint
// differentiation".

// ValueGrad evaluates ⟨C⟩ at the flat parameter vector
// [γ1..γp, β1..βp] and fills grad (same layout, same length) with the
// exact partial derivatives ∂⟨C⟩/∂γ_s, ∂⟨C⟩/∂β_s. The returned value
// is bit-identical to ExpectationVec(x): the forward pass is the same
// code path, and is skipped when the workspace's last evaluation was at
// this very x (the state is still there). Warm calls perform no heap
// allocation; the adjoint state buffer is allocated once on first use.
func (w *EvalWorkspace) ValueGrad(x, grad []float64) float64 {
	if len(x)%2 != 0 {
		panic(fmt.Sprintf("qaoa: parameter vector of odd length %d", len(x)))
	}
	if len(grad) != len(x) {
		panic(fmt.Sprintf("qaoa: gradient length %d != parameter length %d", len(grad), len(x)))
	}
	p := len(x) / 2
	return w.valueGrad(x[:p], x[p:], grad[:p], grad[p:])
}

// valueGrad runs the forward pass — unless the state buffer still holds
// |ψ(γ,β)⟩ — and the adjoint reverse sweep. All kernel-dependent steps
// (phase layers, observable application, matrix elements) go through
// the costKernel interface and every reduction through
// quantum.ReduceChunks and the reverse mixer, so one sweep drives the
// materialized and streaming kernels over the fixed chunk geometry.
func (w *EvalWorkspace) valueGrad(gamma, beta, dGamma, dBeta []float64) float64 {
	if w.rev == nil {
		w.initAdjoint()
	}
	if !w.holds(gamma, beta) {
		w.runLayers(gamma, beta)
	}

	// Seed the adjoint and read the value in one fused pass: λ = C|ψ⟩,
	// val = ⟨C⟩. The per-chunk sums and their merge order match
	// expectation()'s exactly, so the value stays bit-identical.
	val := quantum.ReduceChunks(w.st.Dim(), w.seedBody)

	// Reverse sweep: invariantly, entering iteration s the buffers hold
	// φ = (stages 1..s+1 applied) and λ = (stages s+2..p un-applied from
	// C|ψ⟩), i.e. exactly φ_{s+1} and λ_{s+1} in the derivation above.
	// From here on the state buffer no longer holds |ψ⟩.
	w.heldOK = false
	for s := len(gamma) - 1; s >= 0; s-- {
		// M† = RXAll(−2β) un-applied from both states, Im⟨λ|G_X|φ⟩ read
		// on the way.
		dBeta[s] = 2 * w.rev.Sweep(-2*beta[s])

		// One pass per chunk takes Im⟨λ|H_γ|φ⟩ and un-applies the phase
		// separator from both states (conjugated factors).
		quantum.PhaseFactors(w.factors, w.gens, gamma[s], true)
		w.gamma = gamma[s]
		dGamma[s] = -2 * quantum.ReduceChunks(w.st.Dim(), w.unphaseBody)
	}
	return val
}

// initAdjoint builds the one-time adjoint buffers and dispatch closures;
// every later call reuses them, so warm sweeps allocate nothing. The
// seed pass overwrites every adjoint chunk, so the buffer's initial
// content is irrelevant (arena-pooled buffers arrive dirty).
func (w *EvalWorkspace) initAdjoint() {
	k := w.k
	w.adj = w.arena.get(k.qubits())
	w.rev = quantum.NewReverseMixer(w.st, w.adj)
	w.rev.SetMirror(k.mirror())
	w.seedBody = func(lo, hi int) float64 {
		return k.seedChunkValue(w.adj, w.st, lo, hi)
	}
	w.unphaseBody = func(lo, hi int) float64 {
		return k.unphaseInnerChunk(w.adj, w.st, w.factors, w.gamma, lo, hi)
	}
}
