package qaoa

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"qaoaml/internal/quantum"
)

// The fast evaluation engine. The QAOA objective ⟨ψ(γ,β)|C|ψ(γ,β)⟩ is
// the hot path of the entire reproduction — dataset generation, Table I
// and every figure are tens of thousands of such calls — so it gets a
// dedicated zero-allocation kernel:
//
//   - The phase separator exp(−iγC) is diagonal, and C usually takes
//     only a handful of distinct values (an 8-node unweighted graph has
//     ≲ 30 distinct cut sizes against 256 amplitudes). The engine
//     computes e^{iγ·φ} once per *distinct* value with math.Sincos and
//     applies them through an index table — precomputed below
//     StreamingThreshold, regenerated per chunk from the term lists from
//     it (ising_stream.go). Random real coefficients give nearly every
//     amplitude its own value; such an instance (more than
//     1/maxDistinctShare of the register distinct) builds its phases by
//     doubling on the stream kernel instead, at every size (ising.go).
//   - A whole QAOA stage — uniform fill, phase separator, RX(2β)
//     mixing layer — runs through one fused quantum.LayerRunner sweep:
//     each cache-resident chunk is filled, phased, and mixed (for every
//     in-chunk qubit pair) back-to-back, so the state vector streams
//     from memory once per stage instead of once per pass. (Measured
//     since: the sweep is scalar-ALU-bound, not bandwidth-bound — ≈ 0.2
//     of the triad roofline after the mixer butterflies dropped their
//     complex products by exact zeros, 0.1 before; see quantum/fused.go.)
//   - All buffers (state vector, factor table) and the dispatch
//     closures live in an EvalWorkspace that is reused across objective
//     calls, so a warm NegExpectation performs no heap allocation at
//     all.
//   - The state vector is always a quantum.ShardedState: one shard below
//     ShardThreshold — which is the flat engine, fanned out over the
//     chunk pool — and 2^DefaultShardBits worker-owned shards from it.
//     The workspace has one code path; the layout lives in quantum.
//   - A Hamiltonian without linear terms (every MaxCut, partition, any
//     Instance that is FieldFree) has C(z) = C(z̄), so ψ(z) = ψ(z̄) at
//     every stage. The workspace then evolves the half register φ(z) =
//     √2·ψ(z), z < 2^(n−1): 2^(n−1) amplitudes, cost tables and chunk
//     ranges, and one mirror butterfly per mixer for the qubit it does
//     not store (quantum/mirror.go). Fill, phase, ⟨C⟩, the adjoint seed
//     and the un-phase pass are the same code over the lower-half index
//     range. The choice is made from the Hamiltonian alone; one with a
//     field evolves all 2^n amplitudes as before.
//
// The results match the gate-level oracle (Problem.GateState) to
// rounding error, global phase included.

// costKernel is the per-problem evaluation engine behind EvalWorkspace:
// how the phase separator exp(iγH_γ) is applied, how ⟨C⟩ is read out,
// and how the adjoint sweep's matrix elements are taken. Two
// implementations exist, chosen by newIsingKernel from the instance's
// size and distinct phase values:
//
//   - diagKernel (below): materialized cost diagonal with
//     distinct-value phase memoization — the small-n fast path.
//   - isingStreamKernel (ising_stream.go): computes C(z) on the fly
//     from the term lists per fixed-geometry chunk, so large instances
//     never hold a state-sized float64 table, and builds float phases
//     by doubling where memoizing would take a Sincos per amplitude.
//
// Both produce results over the same fixed reduction geometry
// (quantum.ReduceChunks), so expectations and gradients are
// bit-reproducible across GOMAXPROCS settings. A kernel covers the
// basis states the workspace stores: all 2^n, or the lower 2^(n−1) of a
// half register — the same global indices, the top bit clear.
// The interface is range-based: the workspace drives the chunk loop
// (through quantum.ShardedState's Layer and Reduce over the fixed
// geometry) and the kernel supplies per-chunk bodies. That lets
// the phase separator run inside the fused layer sweep while the chunk
// is cache-resident, and lets reductions fuse with streamed diagonal
// generation.
type costKernel interface {
	// qubits returns the width of the register the workspace evolves:
	// the problem's n, or n−1 when mirror reports a half register.
	qubits() int
	// mirror reports whether the kernel covers the lower half of an
	// X⊗n-symmetric problem (no linear terms), to be evolved as a half
	// register.
	mirror() bool
	// factorLen returns the length of the per-workspace factor scratch
	// the kernel wants.
	factorLen() int
	// prepareFactors fills the factor scratch — the stage's rotations
	// that every chunk shares — for stage angle gamma (conjugated to
	// un-apply). Called once per stage, before the chunked phase
	// application.
	prepareFactors(factors []complex128, gamma float64, conj bool)
	// Every per-chunk method takes an offset/range pair: [lo, hi) indexes
	// the passed State's amplitudes, off+lo…off+hi is the corresponding
	// GLOBAL basis-state range (for cost tables and streamed fills). st is
	// a shard of a quantum.ShardedState and off its base index (0 when
	// there is one shard). Chunk bounds follow the fixed global geometry
	// at every shard count, so per-chunk values do not depend on it.

	// applyPhaseRange applies the phase separator to st over one chunk.
	// gamma is the angle the factors rotate by — the prepareFactors
	// argument, negated where they were conjugated — for kernels that
	// build per-chunk phases on top of them.
	applyPhaseRange(st *quantum.State, factors []complex128, gamma float64, off, lo, hi int)
	// expectChunk returns one chunk's contribution to ⟨st|C|st⟩.
	expectChunk(st *quantum.State, off, lo, hi int) float64
	// seedChunkValue overwrites adj's chunk with (C|st⟩)'s and returns
	// the chunk's contribution to ⟨st|C|st⟩, with the exact summation
	// order of expectChunk — so a fused value+seed pass stays
	// bit-identical to a plain expectation.
	seedChunkValue(adj, st *quantum.State, off, lo, hi int) float64
	// unphaseInnerChunk is one chunk of an adjoint reverse stage: it
	// returns the chunk's contribution to Im⟨adj|H_γ|st⟩ (the half of
	// the matrix element ∂E/∂γ reads) and then un-applies the phase
	// separator from both states — factors prepared conjugated for
	// gamma — reading the states and generating the chunk's diagonal
	// once.
	unphaseInnerChunk(adj, st *quantum.State, factors []complex128, gamma float64, off, lo, hi int) float64
}

// diagKernel is the immutable per-problem precomputation: the cost
// diagonal, and the distinct-value factorization of the phase-separator
// angles. For parameter γ, amplitude z picks up phase γ·halfAngles[idx[z]];
// h(z) = halfAngles[idx[z]] is therefore also the diagonal generator
// H_γ of the phase layer that adjoint differentiation (gradient.go)
// takes matrix elements of.
type diagKernel struct {
	n          int       // qubits of the evolved register: len(diag) = 2^n
	half       bool      // diag is the lower half of an (n+1)-qubit problem's
	diag       []float64 // cost diagonal C(z) (the observable)
	idx        []int32   // idx[z] → index into halfAngles
	halfAngles []float64 // distinct per-γ phase coefficients
}

// newDiagKernelFromGen builds the materialized kernel from the
// observable and phase-generator tables — independent inputs, since
// gen(z) is not a pointwise function of diag(z) (a minimization
// instance flips the sign, auxiliary penalties shift it). The phase
// angles are factorized into distinct values; index assignment follows
// first occurrence in basis-state order, so it is deterministic. Given
// integer doubled sums t (buildIsingTables) spanning fewer slots than the
// table has entries, the slot (T − T_min)/2 stands in for the map key
// with the same result: T ↦ gen is injective there (T averages to zero
// over the register, so the span bounds |T| too). It returns nil once
// more than maxDistinct values turn up.
func newDiagKernelFromGen(n int, diag, gen []float64, t []int64, maxDistinct int) *diagKernel {
	k := &diagKernel{
		n:    n,
		diag: diag,
		idx:  make([]int32, len(diag)),
	}
	if t != nil {
		tmin := slices.Min(t)
		if span := (slices.Max(t) - tmin) / 2; span < int64(len(t)) {
			slot := make([]int32, span+1) // index + 1; 0 = not seen yet
			for z, tz := range t {
				s := &slot[(tz-tmin)/2]
				if *s == 0 {
					if len(k.halfAngles) == maxDistinct {
						return nil
					}
					k.halfAngles = append(k.halfAngles, gen[z])
					*s = int32(len(k.halfAngles))
				}
				k.idx[z] = *s - 1
			}
			return k
		}
	}
	seen := make(map[float64]int32, min(len(gen), maxDistinct))
	for z, a := range gen {
		j, ok := seen[a]
		if !ok {
			if len(k.halfAngles) == maxDistinct {
				return nil
			}
			j = int32(len(k.halfAngles))
			k.halfAngles = append(k.halfAngles, a)
			seen[a] = j
		}
		k.idx[z] = j
	}
	return k
}

// kernel returns the Problem's evaluation kernel, building it on first
// use; sync.Once makes first use safe under concurrency.
func (pb *Problem) kernel() costKernel {
	pb.kernOnce.Do(func() { pb.kern = newIsingKernel(pb.Inst, pb.halfRegister()) })
	return pb.kern
}

// costKernel implementation for the materialized-table path.
func (k *diagKernel) qubits() int    { return k.n }
func (k *diagKernel) mirror() bool   { return k.half }
func (k *diagKernel) factorLen() int { return len(k.halfAngles) }

func (k *diagKernel) prepareFactors(factors []complex128, gamma float64, conj bool) {
	quantum.PhaseFactors(factors, k.halfAngles, gamma, conj)
}

func (k *diagKernel) applyPhaseRange(st *quantum.State, factors []complex128, _ float64, off, lo, hi int) {
	st.MulDiagonalIndexedRange(lo, k.idx[off+lo:off+hi], factors)
}

func (k *diagKernel) expectChunk(st *quantum.State, off, lo, hi int) float64 {
	return st.ExpectationDiagonalRange(lo, k.diag[off+lo:off+hi])
}

func (k *diagKernel) seedChunkValue(adj, st *quantum.State, off, lo, hi int) float64 {
	return adj.SeedDiagonalRange(st, lo, k.diag[off+lo:off+hi])
}

func (k *diagKernel) unphaseInnerChunk(adj, st *quantum.State, factors []complex128, _ float64, off, lo, hi int) float64 {
	return adj.InnerImMulIndexedRange(st, lo, k.idx[off+lo:off+hi], k.halfAngles, factors)
}

// ShardThreshold is the width of the evolved register — one less than
// the problem's for a half register — from which NewWorkspace splits the
// evaluation state over more than one shard: at 27 qubits a single
// allocation is 2 GiB, the regime where per-worker shard ownership pays
// for itself. Results are bit-identical at every shard count; the
// threshold only picks the memory layout.
const ShardThreshold = 27

// DefaultShardBits is the shard count exponent NewWorkspace uses from
// ShardThreshold: 2^2 = 4 shards keeps per-shard allocations ≤ 2 GiB
// through n = 30 while the exchange passes stay a small fraction of a
// layer.
const DefaultShardBits = 2

// EvalWorkspace owns the preallocated buffers one evaluation stream
// needs: the state vector, the distinct-phase factor table and the
// per-chunk dispatch closures (created once here, so warm evaluations
// construct no closures and allocate nothing). A workspace is not safe
// for concurrent use; create one per goroutine.
//
// The state is a quantum.ShardedState, one shard below ShardThreshold;
// results are bit-identical at every shard count. Call Close (or
// Release) when done: with more than one shard it stops the shard
// workers promptly (a finalizer backs it up).
//
// When the kernel reports a half register, the state and the adjoint
// hold 2^(n−1) amplitudes and Layer and the reverse mixer run their
// mirror pass. Half- and full-register results are each bit-identical
// across shard counts, worker counts and arenas; they agree with each
// other to rounding only.
type EvalWorkspace struct {
	k       costKernel
	ss      *quantum.ShardedState
	sbits   uint // log2(shard dim), for global→shard index mapping
	factors []complex128

	// Stage angle for the phase closures, written between dispatches
	// (the dispatch's channel send orders it before any worker reads).
	gamma float64

	// Chunk bodies. Reduce bodies receive GLOBAL bounds (every shard count
	// iterates the same fixed chunk geometry) and map them onto the owning
	// shard: off is the shard's base index, lo−off its local range.
	phaseBody  func(off, lo, hi int)
	expectBody func(lo, hi int) (a, b float64)

	// held is the [γ…,β…] whose |ψ⟩ the last forward pass left in ss,
	// valid while heldOK: runLayers records it, the reverse sweep (which
	// consumes the state) and Release clear it, and nothing else writes
	// the buffer. ValueGrad alone reads it, to skip a forward pass that
	// would rebuild what is already there.
	held          []float64
	heldOK        bool
	forwardPasses int // runLayers calls, for tests and benchmarks

	// Adjoint-sweep buffers and closures (gradient.go), allocated on
	// first ValueGrad call so plain expectation streams never pay for
	// them. Warm gradient calls are allocation-free.
	adj         *quantum.ShardedState
	rev         *quantum.ReverseMixer
	seedBody    func(lo, hi int) (a, b float64)
	unphaseBody func(lo, hi int) (a, b float64)

	// arena, when non-nil, supplied the state buffers (and supplies the
	// lazy adjoint buffer); Release returns them there for the next
	// workspace at this width. A nil arena means plain ownership —
	// Release degrades to Close.
	arena *Arena
}

// NewWorkspace returns a reusable evaluation workspace for the problem:
// one shard below ShardThreshold qubits, 2^DefaultShardBits from it.
func (pb *Problem) NewWorkspace() *EvalWorkspace {
	return newWorkspace(pb.kernel(), nil)
}

// NewWorkspaceArena is NewWorkspace drawing the state-vector buffers
// from the arena (nil behaves like NewWorkspace). Evaluation results
// are bit-identical: pooled buffers are always filled before use. Call
// Release, not Close, so the buffers return to the arena.
func (pb *Problem) NewWorkspaceArena(a *Arena) *EvalWorkspace {
	return newWorkspace(pb.kernel(), a)
}

// NewWorkspaceShards returns a workspace whose state is split into
// 2^shardBits shards regardless of size. Evaluation results are
// bit-identical to NewWorkspace; only the memory layout and worker
// ownership change. Callers should Close the workspace when done.
func (pb *Problem) NewWorkspaceShards(shardBits int) *EvalWorkspace {
	return newShardedWorkspace(pb.kernel(), shardBits, nil)
}

func newWorkspace(k costKernel, a *Arena) *EvalWorkspace {
	shardBits := 0
	if k.qubits() >= ShardThreshold {
		shardBits = DefaultShardBits
	}
	return newShardedWorkspace(k, shardBits, a)
}

func newShardedWorkspace(k costKernel, shardBits int, a *Arena) *EvalWorkspace {
	ss := a.get(k.qubits(), shardBits)
	ss.SetMirror(k.mirror()) // a pooled state keeps its last owner's setting
	w := &EvalWorkspace{
		k:       k,
		ss:      ss,
		sbits:   uint(bits.TrailingZeros(uint(ss.ShardDim()))),
		factors: make([]complex128, k.factorLen()),
		arena:   a,
	}
	w.phaseBody = func(off, lo, hi int) {
		k.applyPhaseRange(w.ss.Shard(off>>w.sbits), w.factors, w.gamma, off, lo, hi)
	}
	w.expectBody = func(lo, hi int) (float64, float64) {
		off := lo &^ (w.ss.ShardDim() - 1)
		return k.expectChunk(w.ss.Shard(lo>>w.sbits), off, lo-off, hi-off), 0
	}
	return w
}

// Close releases the workspace's shard worker goroutines, if it has any.
// Safe to call more than once.
func (w *EvalWorkspace) Close() {
	if w.ss != nil {
		w.ss.Close()
	}
	if w.adj != nil {
		w.adj.Close()
	}
}

// Release retires the workspace, returning its state buffers to the
// arena it was built from (arena-less workspaces just Close). The
// workspace must not be used afterwards. Safe to call more than once.
func (w *EvalWorkspace) Release() {
	if w.arena == nil {
		w.Close()
		return
	}
	a := w.arena
	w.arena = nil
	a.put(w.ss)
	a.put(w.adj)
	w.ss, w.adj, w.rev = nil, nil, nil
	w.heldOK = false
	w.phaseBody, w.expectBody, w.seedBody, w.unphaseBody = nil, nil, nil, nil
}

// argmax returns the index of the most probable basis state of the
// current workspace state. Ties resolve to the lowest global index:
// State.ArgmaxProbability's rule within a shard, and across shards the
// scan ascends and takes strict improvements only.
func (w *EvalWorkspace) argmax() uint64 {
	var best uint64
	bestProb := -1.0
	for i := 0; i < w.ss.NumShards(); i++ {
		local, p := w.ss.Shard(i).ArgmaxProbability()
		if p > bestProb {
			bestProb = p
			best = uint64(i)<<w.sbits | local
		}
	}
	return best
}

// Shards returns how many state-vector shards the workspace evaluates
// over.
func (w *EvalWorkspace) Shards() int { return w.ss.NumShards() }

// runLayers prepares |ψ(γ,β)⟩ in the workspace state: per stage, one
// fused layer sweep applies the uniform fill (first stage), the phase
// separator and the RX(2β) mixer. It records (γ,β) as the state held.
func (w *EvalWorkspace) runLayers(gamma, beta []float64) {
	w.forwardPasses++
	if len(gamma) == 0 {
		w.ss.FillUniform()
	}
	for s := range gamma {
		w.k.prepareFactors(w.factors, gamma[s], false)
		w.gamma = gamma[s]
		w.ss.Layer(2*beta[s], s == 0, w.phaseBody)
	}
	w.held = append(append(w.held[:0], gamma...), beta...)
	w.heldOK = true
}

// holds reports whether the state buffer still holds |ψ(γ,β)⟩ from the
// last forward pass: the same 2p floats by ==, so a NaN never matches.
func (w *EvalWorkspace) holds(gamma, beta []float64) bool {
	p := len(gamma)
	if !w.heldOK || len(w.held) != 2*p {
		return false
	}
	for s := range gamma {
		if w.held[s] != gamma[s] || w.held[p+s] != beta[s] {
			return false
		}
	}
	return true
}

// prepareState builds a fresh |ψ(γ,β)⟩ with the fused layer kernels.
// It backs the one-shot State helpers, which are not hot paths, so the
// transient workspace is fine. One shard, whose State the helpers hand
// out, and always the problem's full register — a half register is
// unfolded.
func prepareState(k costKernel, gamma, beta []float64) *quantum.State {
	w := newShardedWorkspace(k, 0, nil)
	w.runLayers(gamma, beta)
	if k.mirror() {
		return w.ss.Shard(0).UnfoldMirror()
	}
	return w.ss.Shard(0)
}

// expectation evaluates ⟨C⟩ at (γ, β), reusing the workspace buffers.
func (w *EvalWorkspace) expectation(gamma, beta []float64) float64 {
	w.runLayers(gamma, beta)
	e, _ := w.ss.Reduce(w.expectBody)
	return e
}

// Expectation returns ⟨ψ(γ,β)|C|ψ(γ,β)⟩ without heap allocation.
func (w *EvalWorkspace) Expectation(pr Params) float64 {
	if len(pr.Gamma) != len(pr.Beta) {
		panic(fmt.Sprintf("qaoa: gamma/beta length mismatch %d != %d", len(pr.Gamma), len(pr.Beta)))
	}
	return w.expectation(pr.Gamma, pr.Beta)
}

// ExpectationVec evaluates the flat [γ1..γp, β1..βp] parameter vector
// without copying or allocating. It panics for odd-length input.
func (w *EvalWorkspace) ExpectationVec(x []float64) float64 {
	if len(x)%2 != 0 {
		panic(fmt.Sprintf("qaoa: parameter vector of odd length %d", len(x)))
	}
	p := len(x) / 2
	return w.expectation(x[:p], x[p:])
}

// wsPool hands out evaluation workspaces to concurrent callers of the
// problem-level Expectation helpers. Pointers round-trip through the
// pool without allocating.
type wsPool struct {
	pool sync.Pool
}

func (p *wsPool) get(k costKernel) *EvalWorkspace {
	if w, ok := p.pool.Get().(*EvalWorkspace); ok {
		return w
	}
	return newWorkspace(k, nil)
}

func (p *wsPool) put(w *EvalWorkspace) { p.pool.Put(w) }
