package qaoa

import (
	"fmt"
	"math/bits"

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
// seeds λ = C|ψ⟩ and walks s = p..1, taking the two inner products and
// un-applying each layer from both states with the inverse of the same
// fused kernels the forward pass uses (RXAll(−2β), conjugated phase
// factors). Every partial is exact — all 2p of them for roughly the
// cost of three evaluations, independent of p, where central finite
// differences spend 4p evaluations. See DESIGN.md, "Adjoint
// differentiation".

// ValueGrad evaluates ⟨C⟩ at the flat parameter vector
// [γ1..γp, β1..βp] and fills grad (same layout, same length) with the
// exact partial derivatives ∂⟨C⟩/∂γ_s, ∂⟨C⟩/∂β_s. The returned value
// is bit-identical to ExpectationVec(x): the forward pass is the same
// code path. Warm calls perform no heap allocation; the adjoint state
// buffer is allocated once on first use.
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

// Gradient fills grad with ∂⟨C⟩/∂x at x, discarding the value. Layout
// and cost are those of ValueGrad.
func (w *EvalWorkspace) Gradient(x, grad []float64) { w.ValueGrad(x, grad) }

// valueGrad runs the forward pass and the adjoint reverse sweep. All
// kernel-dependent steps (phase layers, observable application, matrix
// elements) go through the costKernel interface, so the same sweep
// drives the materialized small-n path and the streaming large-n path.
func (w *EvalWorkspace) valueGrad(gamma, beta, dGamma, dBeta []float64) float64 {
	if w.ss != nil {
		return w.valueGradSharded(gamma, beta, dGamma, dBeta)
	}
	k := w.k
	if w.adj == nil {
		// One-time adjoint buffers and dispatch closures; every later
		// call reuses them, so warm sweeps allocate nothing. The seed
		// pass overwrites every adjoint chunk, so the buffer's initial
		// content is irrelevant (arena-pooled buffers arrive dirty).
		w.adj = w.arena.adjointState(w.state)
		w.adjRunner = quantum.NewLayerRunner(w.adj)
		w.seedBody = func(lo, hi int) (float64, float64) {
			return k.seedChunkValue(w.adj, w.state, 0, lo, hi), 0
		}
		w.sumXBody = func(lo, hi int) (float64, float64) {
			return quantum.SumXImRange(w.adj, w.state, lo, hi), 0
		}
		w.unphaseBody = func(lo, hi int) (float64, float64) {
			return k.unphaseInnerChunk(w.adj, w.state, w.factors, w.gamma, 0, lo, hi), 0
		}
	}
	dim := w.state.Dim()

	// Forward pass: |ψ⟩, exactly as expectation().
	w.runLayers(gamma, beta)

	// Seed the adjoint and read the value in one fused pass: λ = C|ψ⟩,
	// val = ⟨C⟩. The per-chunk sums and their merge order match
	// expectation()'s exactly, so the value stays bit-identical.
	val, _ := quantum.ReduceChunks(dim, w.seedBody)

	// Reverse sweep: invariantly, entering iteration s the buffers hold
	// φ = (stages 1..s+1 applied) and λ = (stages s+2..p un-applied from
	// C|ψ⟩), i.e. exactly φ_{s+1} and λ_{s+1} in the derivation above.
	for s := len(gamma) - 1; s >= 0; s-- {
		im, _ := quantum.ReduceChunks(dim, w.sumXBody)
		dBeta[s] = 2 * im

		// Un-apply the mixer from both states: M† = RXAll(−2β), through
		// the fused layer sweep (no phase, no fill).
		w.runner.Layer(-2*beta[s], false, nil)
		w.adjRunner.Layer(-2*beta[s], false, nil)

		// One pass per chunk takes Im⟨λ|H_γ|φ⟩ and un-applies the phase
		// separator from both states (conjugated factors).
		w.k.prepareFactors(w.factors, gamma[s], true)
		w.gamma = gamma[s]
		gim, _ := quantum.ReduceChunks(dim, w.unphaseBody)
		dGamma[s] = -2 * gim
	}
	return val
}

// valueGradSharded is the reverse sweep over the sharded state layout:
// the same stage structure as the flat sweep, with reductions and
// un-apply passes driven by the ShardedState's per-shard workers over
// the same global chunk geometry. Sharded chunk bodies receive global
// bounds and map them onto the owning shard; the partial merge order
// and per-chunk arithmetic are unchanged, so value and gradient are
// bit-identical to the flat sweep.
func (w *EvalWorkspace) valueGradSharded(gamma, beta, dGamma, dBeta []float64) float64 {
	k := w.k
	if w.adjSS == nil {
		// The seed pass overwrites every adjoint chunk, so a fresh
		// (zeroed) shard set — or a dirty arena-pooled one — is a valid
		// starting point.
		w.adjSS = w.arena.getSharded(w.ss.NumQubits(), bits.Len(uint(w.ss.NumShards()-1)))
		sdim := w.ss.ShardDim()
		w.seedShard = func(lo, hi int) (float64, float64) {
			off := lo &^ (sdim - 1)
			si := lo >> w.sbits
			return k.seedChunkValue(w.adjSS.Shard(si), w.ss.Shard(si), off, lo-off, hi-off), 0
		}
		w.sumXShard = func(lo, hi int) (float64, float64) {
			return quantum.ShardedSumXImRange(w.adjSS, w.ss, lo, hi), 0
		}
		w.unphaseShard = func(lo, hi int) (float64, float64) {
			off := lo &^ (sdim - 1)
			si := lo >> w.sbits
			return k.unphaseInnerChunk(w.adjSS.Shard(si), w.ss.Shard(si), w.factors, w.gamma, off, lo-off, hi-off), 0
		}
	}

	w.runLayersSharded(gamma, beta)
	val, _ := w.ss.Reduce(w.seedShard)

	for s := len(gamma) - 1; s >= 0; s-- {
		im, _ := w.ss.Reduce(w.sumXShard)
		dBeta[s] = 2 * im

		w.ss.Layer(-2*beta[s], false, nil)
		w.adjSS.Layer(-2*beta[s], false, nil)

		w.k.prepareFactors(w.factors, gamma[s], true)
		w.gamma = gamma[s]
		gim, _ := w.ss.Reduce(w.unphaseShard)
		dGamma[s] = -2 * gim
	}
	return val
}
