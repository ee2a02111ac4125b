package quantum

// ShardedState is one LayerRunner on one State, kept for benchmark/,
// whose ladder times it against the flat sweep
// (quantum.sharded_vs_flat_ratio). Four shards were measured no faster
// than the flat register at 20–27 qubits (EXPERIMENTS.md), so there is
// no shard layout: the row times the flat sweep against itself.
//
// Deprecated: pinned by benchmark/ (ROADMAP item 1). Evolve a State
// through a LayerRunner instead.
type ShardedState struct {
	s     *State
	r     *LayerRunner
	phase func(off, lo, hi int)
	wrap  func(lo, hi int) // phase at offset 0, built once so warm Layers allocate nothing
}

// NewShardedState returns the n-qubit state |0…0⟩; shardBits is ignored.
//
// Deprecated: see ShardedState.
func NewShardedState(n, shardBits int) *ShardedState {
	ss := &ShardedState{s: NewState(n)}
	ss.r = NewLayerRunner(ss.s)
	ss.wrap = func(lo, hi int) { ss.phase(0, lo, hi) }
	return ss
}

// Close does nothing.
func (ss *ShardedState) Close() {}

// Layer is LayerRunner.Layer. The phase callback receives offset 0 and
// global chunk bounds; nil skips the phase.
func (ss *ShardedState) Layer(theta float64, fill bool, phase func(off, lo, hi int)) {
	if phase == nil {
		ss.r.Layer(theta, fill, nil)
		return
	}
	ss.phase = phase
	ss.r.Layer(theta, fill, ss.wrap)
	ss.phase = nil
}
