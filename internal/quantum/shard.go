package quantum

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Sharded layer probe — pinned by benchmark/ (ROADMAP item 1).
//
// The evaluation engine evolves a plain State (qaoa/workspace.go). A
// ShardedState survives only as the probe the benchmark ladder times
// against the flat sweep (quantum.sharded_vs_flat_ratio): NewShardedState,
// Layer and Close, nothing else. Four shards were measured no faster
// than the flat register at 20–27 qubits (EXPERIMENTS.md), so nothing in
// the program builds one; the benchmark-only change that replaces the
// row deletes this file along with LayerRunner.limit/clen and
// State.serial, which only it sets.
//
// A ShardedState holds the 2^n amplitudes of an n-qubit register as
// k = 2^s ≥ 2 independently allocated shards of 2^(n−s) amplitudes:
// shard i owns the amplitudes whose basis-state index has high bits i,
// and one fixed worker goroutine owns each shard for the lifetime of the
// state. Everything below the top s qubits — fill, phase, RX pairs via a
// serial-pinned LayerRunner whose sweep stops below the exchange qubits
// and whose chunk length is the GLOBAL ChunkLen — runs in-shard. RX on
// the top s qubits runs as pairwise exchange passes: qubit n−s+b pairs
// shard i with shard i^(1<<b) at equal local indices. Every butterfly is
// the fused sweep's own arithmetic on the same quadruple, ascending, so
// Layer's amplitudes are bit-identical to LayerRunner.Layer on a plain
// State (shard_test.go).

// shardGroup runs one operation concurrently across the shard workers.
// Worker w (1..k−1) is a long-lived goroutine; rank 0 is the calling
// goroutine. The goroutines reference only the group — never the
// ShardedState — so a dropped state becomes unreachable and its
// finalizer can release the workers.
type shardGroup struct {
	cmd []chan func(int) // helper w reads cmd[w-1]
	wg  sync.WaitGroup
}

func newShardGroup(helpers int) *shardGroup {
	g := &shardGroup{cmd: make([]chan func(int), helpers)}
	for i := range g.cmd {
		ch := make(chan func(int), 1)
		g.cmd[i] = ch
		go func(rank int) {
			for op := range ch {
				op(rank)
				g.wg.Done()
			}
		}(i + 1)
	}
	return g
}

// run executes op(w) for every worker rank 0..k−1 and returns when all
// have finished. The channel send/receive orders the coordinator's
// parameter writes before any worker reads them; wg.Wait orders worker
// writes before the coordinator continues.
func (g *shardGroup) run(op func(int)) {
	g.wg.Add(len(g.cmd))
	for _, ch := range g.cmd {
		ch <- op
	}
	op(0)
	g.wg.Wait()
}

func (g *shardGroup) close() {
	for _, ch := range g.cmd {
		close(ch)
	}
	g.cmd = nil
}

// ShardedState is an n-qubit register split into 2^shardBits ≥ 2
// shards, initialized to |0…0⟩. It is not safe for concurrent use. Call
// Close when done to release the shard workers promptly; a finalizer
// backs it up for dropped states.
//
// Deprecated: pinned by benchmark/ (ROADMAP item 1). Evolve a State
// through a LayerRunner instead.
type ShardedState struct {
	n     int // total qubits
	sbits int // qubits per shard
	sdim  int // amplitudes per shard

	shards  []*State
	runners []*LayerRunner
	wraps   []func(lo, hi int) // per-shard phase adapters (local → global)
	grp     *shardGroup

	// Per-operation parameters: written by the coordinator before the
	// group dispatch, read-only during worker execution.
	theta      float64
	fill       bool
	phaseFn    func(off, lo, hi int)
	rx         rxCoef // exchange butterfly coefficients
	exB0, exB1 int    // shard-index bits of the current quad pass

	// Pre-built worker bodies, one closure each, so warm operations
	// allocate nothing.
	opLayer  func(int)
	opPair   func(int)
	opQuad   func(int)
	opSingle func(int)
}

// NewShardedState returns the n-qubit state |0…0⟩ split into
// 2^shardBits shards, shardBits ≥ 1. Shards must hold at least one
// fixed-geometry chunk each (2^(n−shardBits) ≥ ChunkLen(2^n)) so the
// global chunk layout survives sharding intact.
//
// Deprecated: pinned by benchmark/ (ROADMAP item 1).
func NewShardedState(n, shardBits int) *ShardedState {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("quantum: qubit count %d out of [1,%d]", n, MaxQubits))
	}
	if shardBits < 1 || shardBits >= n {
		panic(fmt.Sprintf("quantum: shard bits %d out of [1,%d) for %d qubits", shardBits, n, n))
	}
	dim := 1 << uint(n)
	sbits := n - shardBits
	sdim := 1 << uint(sbits)
	clen := ChunkLen(dim)
	if sdim < clen {
		panic(fmt.Sprintf("quantum: %d-qubit shards are smaller than the fixed chunk length %d; use at most %d shard bits",
			sbits, clen, n-13))
	}
	k := 1 << uint(shardBits)
	ss := &ShardedState{n: n, sbits: sbits, sdim: sdim}
	limit := sbits
	if sbits%2 == 1 {
		limit = sbits - 1 // the straddle pair (sbits−1, sbits) belongs to the exchange
	}
	amp := complex(1/math.Sqrt(float64(dim)), 0)
	for i := 0; i < k; i++ {
		// The owning worker is a shard's parallelism.
		sh := &State{n: sbits, amps: make([]complex128, sdim), serial: true}
		ampBytes.Add(int64(16 * sdim))
		r := NewLayerRunner(sh)
		r.amp = amp // uniform amplitude of the GLOBAL register
		r.clen = clen
		r.limit = limit
		base := i * sdim
		ss.shards = append(ss.shards, sh)
		ss.runners = append(ss.runners, r)
		ss.wraps = append(ss.wraps, func(lo, hi int) { ss.phaseFn(base, lo, hi) })
	}
	ss.shards[0].amps[0] = 1

	ss.opLayer = func(w int) {
		ph := ss.wraps[w]
		if ss.phaseFn == nil {
			ph = nil
		}
		ss.runners[w].Layer(ss.theta, ss.fill, ph)
	}
	ss.opPair = ss.pairBody
	ss.opQuad = ss.quadBody
	ss.opSingle = ss.singleBody

	ss.grp = newShardGroup(k - 1)
	runtime.SetFinalizer(ss, (*ShardedState).Close)
	return ss
}

// Close stops the shard workers. The state must not be used afterwards.
// Close is idempotent and runs automatically (via finalizer) when the
// state is garbage collected, so dropped states never leak goroutines.
func (ss *ShardedState) Close() {
	if ss.grp != nil {
		ss.grp.close()
		ss.grp = nil
	}
	runtime.SetFinalizer(ss, nil)
}

// Layer applies one fused QAOA stage — optional uniform refill, the
// caller's phase separator, RX(theta) on every qubit — with amplitudes
// bit-identical to LayerRunner.Layer on a plain State. The phase
// callback receives the shard's global base offset plus shard-LOCAL
// chunk bounds (off+lo … off+hi is the global range), over the global
// fixed chunk geometry; nil skips the phase.
func (ss *ShardedState) Layer(theta float64, fill bool, phase func(off, lo, hi int)) {
	if ss.grp == nil {
		panic("quantum: operation on a closed ShardedState")
	}
	ss.theta, ss.fill, ss.phaseFn = theta, fill, phase
	g := ss.grp
	g.run(ss.opLayer) // fill + phase + all RX pairs below the exchange qubits
	ss.phaseFn = nil
	ss.rx = newRXCoef(theta)

	// Exchange passes, ascending qubit order: the straddle pair when the
	// shard width is odd, then one 4-shard pass per shard-index pair,
	// then the odd final qubit.
	q := ss.sbits
	if ss.sbits%2 == 1 {
		g.run(ss.opPair)
		q = ss.sbits + 1
	}
	for ; q+1 < ss.n; q += 2 {
		ss.exB0, ss.exB1 = q-ss.sbits, q+1-ss.sbits
		g.run(ss.opQuad)
	}
	if ss.n%2 == 1 {
		g.run(ss.opSingle)
	}
}

// pairBody is the straddle exchange: the RX pair (sbits−1, sbits) whose
// low qubit is the shard's top local bit and whose high qubit is shard-
// index bit 0. Shards (i, i^1) pair up; the two owning workers split
// the representative range (local indices with the top bit clear), so
// writes are disjoint and the schedule is fixed.
func (ss *ShardedState) pairBody(w int) {
	a := ss.shards[w&^1].amps
	b := ss.shards[w|1].amps
	hb := ss.sdim >> 1
	span := hb >> 1
	lo := (w & 1) * span
	hi := lo + span
	rxQuad(a[lo:hi], a[hb+lo:hb+hi], b[lo:hi], b[hb+lo:hb+hi], ss.rx.cc, ss.rx.cm, ss.rx.mm)
}

// quadBody is one 4-shard exchange pass: the fused RX pair on global
// qubits (sbits+exB0, sbits+exB1) combines equal local indices of the
// four shards whose indices differ in bits exB0/exB1. Each of the
// quad's four workers takes one quarter of the local index range —
// disjoint writes, fixed schedule, the same rxQuad kernel an in-shard
// pair runs.
func (ss *ShardedState) quadBody(w int) {
	b0 := 1 << uint(ss.exB0)
	b1 := 1 << uint(ss.exB1)
	base := w &^ (b0 | b1)
	s0 := ss.shards[base].amps
	s1 := ss.shards[base|b0].amps
	s2 := ss.shards[base|b1].amps
	s3 := ss.shards[base|b0|b1].amps
	rank := (w >> uint(ss.exB0) & 1) | (w >> uint(ss.exB1) & 1 << 1)
	span := ss.sdim >> 2
	lo := rank * span
	hi := lo + span
	rxQuad(s0[lo:hi], s1[lo:hi], s2[lo:hi], s3[lo:hi], ss.rx.cc, ss.rx.cm, ss.rx.mm)
}

// singleBody is the 2-shard exchange for the odd final qubit n−1
// (shard-index top bit): RX applied between equal local indices of
// shards (i, i^(k/2)), each pair's two workers splitting the range.
func (ss *ShardedState) singleBody(w int) {
	bit := len(ss.shards) >> 1
	a := ss.shards[w&^bit].amps
	b := ss.shards[w|bit].amps
	rank := 0
	if w&bit != 0 {
		rank = 1
	}
	span := ss.sdim >> 1
	lo := rank * span
	hi := lo + span
	rxDuo(a[lo:hi], b[lo:hi], ss.rx.c, ss.rx.s)
}
