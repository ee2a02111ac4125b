package qaoa

import (
	"sync"

	"qaoaml/internal/quantum"
)

// Arena pools the state-vector-sized buffers evaluation workspaces
// hold: flat amplitude vectors and sharded shard sets (above
// ShardThreshold). Buffers are keyed by the width of the register a
// workspace evolves — the problem's n, or n−1 for the half register of
// a Hamiltonian without linear terms (workspace.go) — and, for sharded
// states, the shard layout; never by problem, because a state vector
// carries no problem-specific content: every evaluation begins with a
// fill pass (or an explicit FillUniform), so a buffer released after
// solving one instance is immediately reusable for any other instance
// evolving the same width, half register or full. This is what makes a
// served solve loop allocation-free in the steady state: the daemon's
// per-worker arena hands the same vectors to solve after solve instead
// of growing the heap by 16 bytes per amplitude per request.
//
// Results are unaffected: a workspace drawn from an arena computes
// bit-identical expectations and gradients to a freshly allocated one
// (pinned by TestArenaBitIdentity), because buffer contents before the
// fill pass never reach an evaluation.
//
// An Arena is safe for concurrent use, but the intended shape is one
// arena per serving worker (no lock contention, NUMA-friendly buffer
// locality). Close releases pooled sharded states' worker goroutines;
// flat buffers are just dropped to the GC.
type Arena struct {
	mu      sync.Mutex
	flat    map[int][]*quantum.State
	sharded map[shardKey][]*quantum.ShardedState
	cap     int
	closed  bool

	gets int64
	hits int64
}

// shardKey identifies a pooled sharded layout.
type shardKey struct {
	n      int
	shards int
}

// DefaultArenaCap bounds how many free buffers an arena retains per
// key when NewArena is given no explicit cap. A solve holds at most
// two state vectors (state + adjoint) per batch worker, so a small
// multiple covers the steady state without hoarding memory across
// register widths a server has stopped seeing.
const DefaultArenaCap = 8

// NewArena returns an empty buffer arena retaining up to capPerKey
// free buffers per (width, layout) key (≤ 0 selects DefaultArenaCap).
func NewArena(capPerKey int) *Arena {
	if capPerKey <= 0 {
		capPerKey = DefaultArenaCap
	}
	return &Arena{
		flat:    make(map[int][]*quantum.State),
		sharded: make(map[shardKey][]*quantum.ShardedState),
		cap:     capPerKey,
	}
}

// ArenaStats counts buffer traffic: Gets is how many state buffers
// were requested from the arena, Hits how many of those were served
// from the free lists instead of allocated. Hits/Gets is the
// workspace-reuse rate the serving layer reports.
type ArenaStats struct {
	Gets int64
	Hits int64
}

// Stats returns cumulative buffer-traffic counters.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return ArenaStats{Gets: a.gets, Hits: a.hits}
}

// Close drops all pooled buffers, closing sharded states so their
// shard workers exit. Later puts close/drop the returned buffers too;
// later gets fall back to fresh allocation. Safe to call repeatedly.
func (a *Arena) Close() {
	if a == nil {
		return
	}
	a.mu.Lock()
	sharded := a.sharded
	a.flat = make(map[int][]*quantum.State)
	a.sharded = make(map[shardKey][]*quantum.ShardedState)
	a.closed = true
	a.mu.Unlock()
	for _, list := range sharded {
		for _, ss := range list {
			ss.Close()
		}
	}
}

// getState returns an n-qubit flat state, n being the evolved width:
// pooled if available, freshly allocated otherwise. A nil arena always
// allocates (the non-pooled workspace path). Pooled buffers come back
// with arbitrary amplitude content; every consumer fills before reading.
func (a *Arena) getState(n int) *quantum.State {
	if a == nil {
		return quantum.NewUniformState(n)
	}
	a.mu.Lock()
	a.gets++
	if list := a.flat[n]; len(list) > 0 {
		st := list[len(list)-1]
		a.flat[n] = list[:len(list)-1]
		a.hits++
		a.mu.Unlock()
		return st
	}
	a.mu.Unlock()
	return quantum.NewUniformState(n)
}

// putState returns a flat state buffer to the pool (dropped when the
// arena is closed or the key's free list is full).
func (a *Arena) putState(st *quantum.State) {
	if a == nil || st == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed || len(a.flat[st.NumQubits()]) >= a.cap {
		return
	}
	a.flat[st.NumQubits()] = append(a.flat[st.NumQubits()], st)
}

// getSharded returns an n-qubit sharded state with 2^shardBits shards:
// pooled (still holding its live shard workers) if available, freshly
// allocated otherwise. Content is arbitrary, as with getState.
func (a *Arena) getSharded(n, shardBits int) *quantum.ShardedState {
	if a == nil {
		return quantum.NewShardedState(n, shardBits)
	}
	key := shardKey{n: n, shards: 1 << uint(shardBits)}
	a.mu.Lock()
	a.gets++
	if list := a.sharded[key]; len(list) > 0 {
		ss := list[len(list)-1]
		a.sharded[key] = list[:len(list)-1]
		a.hits++
		a.mu.Unlock()
		return ss
	}
	a.mu.Unlock()
	return quantum.NewShardedState(n, shardBits)
}

// putSharded returns a sharded state to the pool. When the arena is
// closed or the key's free list is full the state is closed instead,
// so shard workers never leak.
func (a *Arena) putSharded(ss *quantum.ShardedState) {
	if ss == nil {
		return
	}
	if a == nil {
		ss.Close()
		return
	}
	key := shardKey{n: ss.NumQubits(), shards: ss.NumShards()}
	a.mu.Lock()
	if a.closed || len(a.sharded[key]) >= a.cap {
		a.mu.Unlock()
		ss.Close()
		return
	}
	a.sharded[key] = append(a.sharded[key], ss)
	a.mu.Unlock()
}

// adjointState returns a buffer shaped like st for the adjoint sweep:
// pooled when an arena is attached, a clone otherwise. The seed pass
// overwrites every amplitude before reading, so content is irrelevant.
func (a *Arena) adjointState(st *quantum.State) *quantum.State {
	if a == nil {
		return st.Clone()
	}
	return a.getState(st.NumQubits())
}
