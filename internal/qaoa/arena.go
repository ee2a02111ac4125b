package qaoa

import (
	"sync"

	"qaoaml/internal/quantum"
)

// Arena pools the state vectors evaluation workspaces hold: the
// quantum.State of the forward pass and the adjoint's. Buffers are keyed
// by the width of the register a workspace evolves — the problem's n, or
// n−1 for the half register of a Hamiltonian without linear terms
// (workspace.go) — never by problem, because a state vector carries no
// problem-specific content: every evaluation begins with a fill pass (or
// an explicit FillUniform), so a buffer released after solving one
// instance is immediately reusable for any other instance evolving the
// same width, half register or full.
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
// locality).
type Arena struct {
	mu     sync.Mutex
	free   map[int][]*quantum.State // by evolved width
	cap    int
	closed bool

	gets int64
	hits int64
}

// DefaultArenaCap bounds how many free buffers an arena retains per
// width when NewArena is given no explicit cap. A solve holds two state
// vectors (state + adjoint), so a small multiple covers the steady state
// without hoarding memory across register widths a server has stopped
// seeing.
const DefaultArenaCap = 8

// NewArena returns an empty buffer arena retaining up to capPerKey
// free buffers per width (≤ 0 selects DefaultArenaCap).
func NewArena(capPerKey int) *Arena {
	if capPerKey <= 0 {
		capPerKey = DefaultArenaCap
	}
	return &Arena{free: make(map[int][]*quantum.State), cap: capPerKey}
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

// Close drops all pooled buffers. Later puts drop the returned buffers
// too; later gets fall back to fresh allocation. Safe to call repeatedly.
func (a *Arena) Close() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.free = make(map[int][]*quantum.State)
	a.closed = true
	a.mu.Unlock()
}

// get returns a state of n qubits — the evolved width: pooled if
// available, freshly allocated otherwise. A nil arena always allocates
// (the non-pooled workspace path). Pooled buffers come back with
// arbitrary amplitude content; every consumer fills before reading.
func (a *Arena) get(n int) *quantum.State {
	if a == nil {
		return quantum.NewState(n)
	}
	a.mu.Lock()
	a.gets++
	if list := a.free[n]; len(list) > 0 {
		st := list[len(list)-1]
		a.free[n] = list[:len(list)-1]
		a.hits++
		a.mu.Unlock()
		return st
	}
	a.mu.Unlock()
	return quantum.NewState(n)
}

// put returns a state to the pool (nil is a no-op). When the arena is
// closed or the width's free list is full the state is dropped instead.
func (a *Arena) put(st *quantum.State) {
	if st == nil {
		return
	}
	n := st.NumQubits()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed || len(a.free[n]) >= a.cap {
		return
	}
	a.free[n] = append(a.free[n], st)
}
