package qaoa

import (
	"sync"

	"qaoaml/internal/quantum"
)

// Arena pools the state vectors evaluation workspaces hold: the
// quantum.ShardedState of the forward pass and the adjoint's. Buffers
// are keyed by the width of the register a workspace evolves — the
// problem's n, or n−1 for the half register of a Hamiltonian without
// linear terms (workspace.go) — and the shard count; never by problem,
// because a state vector carries no problem-specific content: every
// evaluation begins with a fill pass (or an explicit FillUniform), so a
// buffer released after solving one instance is immediately reusable for
// any other instance evolving the same width, half register or full.
// This is what makes a served solve loop allocation-free in the steady
// state: the daemon's per-worker arena hands the same vectors to solve
// after solve instead of growing the heap by 16 bytes per amplitude per
// request.
//
// Results are unaffected: a workspace drawn from an arena computes
// bit-identical expectations and gradients to a freshly allocated one
// (pinned by TestArenaBitIdentity), because buffer contents before the
// fill pass never reach an evaluation.
//
// An Arena is safe for concurrent use, but the intended shape is one
// arena per serving worker (no lock contention, NUMA-friendly buffer
// locality). Close closes the pooled states, so the shard workers of
// multi-shard ones exit.
type Arena struct {
	mu     sync.Mutex
	free   map[shardKey][]*quantum.ShardedState
	cap    int
	closed bool

	gets int64
	hits int64
}

// shardKey identifies a pooled layout.
type shardKey struct {
	n      int
	shards int
}

// DefaultArenaCap bounds how many free buffers an arena retains per
// key when NewArena is given no explicit cap. A solve holds two state
// vectors (state + adjoint), so a small multiple covers the steady state without hoarding memory across
// register widths a server has stopped seeing.
const DefaultArenaCap = 8

// NewArena returns an empty buffer arena retaining up to capPerKey
// free buffers per (width, shards) key (≤ 0 selects DefaultArenaCap).
func NewArena(capPerKey int) *Arena {
	if capPerKey <= 0 {
		capPerKey = DefaultArenaCap
	}
	return &Arena{free: make(map[shardKey][]*quantum.ShardedState), cap: capPerKey}
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

// Close drops all pooled buffers, closing them so shard workers exit.
// Later puts close the returned buffers too; later gets fall back to
// fresh allocation. Safe to call repeatedly.
func (a *Arena) Close() {
	if a == nil {
		return
	}
	a.mu.Lock()
	free := a.free
	a.free = make(map[shardKey][]*quantum.ShardedState)
	a.closed = true
	a.mu.Unlock()
	for _, list := range free {
		for _, ss := range list {
			ss.Close()
		}
	}
}

// get returns a state of n qubits — the evolved width — in 2^shardBits
// shards: pooled (multi-shard ones still holding their live workers) if
// available, freshly allocated otherwise. A nil arena always allocates
// (the non-pooled workspace path). Pooled buffers come back with
// arbitrary amplitude content; every consumer fills before reading.
func (a *Arena) get(n, shardBits int) *quantum.ShardedState {
	if a == nil {
		return quantum.NewShardedState(n, shardBits)
	}
	key := shardKey{n: n, shards: 1 << uint(shardBits)}
	a.mu.Lock()
	a.gets++
	if list := a.free[key]; len(list) > 0 {
		ss := list[len(list)-1]
		a.free[key] = list[:len(list)-1]
		a.hits++
		a.mu.Unlock()
		return ss
	}
	a.mu.Unlock()
	return quantum.NewShardedState(n, shardBits)
}

// put returns a state to the pool (nil is a no-op). When the arena is
// closed or the key's free list is full the state is closed instead, so
// shard workers never leak.
func (a *Arena) put(ss *quantum.ShardedState) {
	if ss == nil {
		return
	}
	key := shardKey{n: ss.NumQubits(), shards: ss.NumShards()}
	a.mu.Lock()
	if a.closed || len(a.free[key]) >= a.cap {
		a.mu.Unlock()
		ss.Close()
		return
	}
	a.free[key] = append(a.free[key], ss)
	a.mu.Unlock()
}
