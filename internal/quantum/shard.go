package quantum

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Sharded state representation — the register every evaluation runs on.
//
// A ShardedState holds the 2^n amplitudes of an n-qubit register as
// k = 2^s independently allocated shards of 2^(n−s) amplitudes: shard i
// owns the amplitudes whose basis-state index has high bits i.
//
// One shard (s = 0) is the flat engine itself, not an imitation of it:
// the shard is an ordinary State, its LayerRunner sweeps every qubit,
// and Layer, Reduce and FillUniform are the runner's, ReduceChunks and
// the State's own — fanned out over the chunk pool (pool.go) from
// ParallelDim. No goroutine is started and no finalizer set.
//
// With k > 1 each shard is owned by one fixed worker goroutine for the
// lifetime of the state, so every in-shard operation — uniform fill,
// diagonal phase, RX butterflies on the low n−s qubits (via the fused
// LayerRunner), chunked reductions — runs with perfect locality and zero
// cross-shard synchronization; shard States are serial-pinned so that
// work never re-enters the chunk pool. On a NUMA machine each shard's
// pages stay with the core that allocated and always touches them.
//
// Only RX on the top s qubits crosses shards, and it does so as an
// explicit pairwise exchange: qubit n−s+b pairs shard i with shard
// i^(1<<b), and the butterfly combines amplitudes at EQUAL local
// indices of the paired shards. Each pass names the partner shard and
// touches nothing else, so "read partner amplitudes" can become
// "receive partner's buffer" without reshaping the computation.
//
// Bit-identity across shard counts. The fused layer (fused.go) applies
// per amplitude: fill → phase → RX pair (0,1) → (2,3) → … → odd final
// qubit, with fixed-geometry chunk ranges for the phase callback and
// fixed reduction merge order. With k > 1 the SAME per-amplitude
// sequence runs: the in-shard LayerRunner (its sweep capped below the
// exchange qubits, its chunk length pinned to the GLOBAL ChunkLen)
// covers the low pairs, then the exchange passes cover the straddle
// pair, the shard-index pairs and the odd final qubit, ascending.
// Every butterfly uses the identical fused 4×4 (or 2×2) arithmetic on
// the identical quadruple, distinct pairs touch disjoint quadruples,
// and reductions merge per-chunk partials in global chunk order — so
// amplitudes, expectations and gradients are bit-identical at every
// GOMAXPROCS and every shard count (shard_test.go holds Layer against
// LayerRunner.Layer on a plain State).

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
	if len(g.cmd) == 0 {
		op(0)
		return
	}
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

// ShardedState is an n-qubit register split into 2^shardBits shards,
// initialized to |0…0⟩. It is not safe for concurrent use. Call Close
// when done to release the shard workers promptly; a finalizer backs
// it up for dropped states that have any.
type ShardedState struct {
	n     int // total qubits
	sbits int // qubits per shard
	sdim  int // amplitudes per shard
	clen  int // global fixed chunk length ChunkLen(2^n)
	amp   complex128
	// mirror makes the state a half register (mirror.go): Layer ends with
	// the mirror exchange between shards w and K−1−w.
	mirror bool

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

	redBody func(lo, hi int) (a, b float64)
	parts   []float64

	// Pre-built worker bodies, one closure each, so warm operations
	// allocate nothing.
	opLayer  func(int)
	opPair   func(int)
	opQuad   func(int)
	opSingle func(int)
	opMirror func(int)
	opFill   func(int)
	opReduce func(int)
}

// NewShardedState returns the n-qubit state |0…0⟩ split into
// 2^shardBits shards. Shards must hold at least one fixed-geometry
// chunk each (2^(n−shardBits) ≥ ChunkLen(2^n)) so the global chunk
// layout — and with it every reduction's merge order and every
// streaming kernel's chunk decomposition — survives sharding intact.
// shardBits 0 is valid: one shard, no workers — the flat engine.
func NewShardedState(n, shardBits int) *ShardedState {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("quantum: qubit count %d out of [1,%d]", n, MaxQubits))
	}
	if shardBits < 0 || shardBits >= n {
		panic(fmt.Sprintf("quantum: shard bits %d out of [0,%d) for %d qubits", shardBits, n, n))
	}
	dim := 1 << uint(n)
	sbits := n - shardBits
	sdim := 1 << uint(sbits)
	clen := ChunkLen(dim)
	if clen > dim {
		clen = dim
	}
	if shardBits > 0 && sdim < clen {
		panic(fmt.Sprintf("quantum: %d-qubit shards are smaller than the fixed chunk length %d; use at most %d shard bits",
			sbits, clen, n-13))
	}
	k := 1 << uint(shardBits)
	ss := &ShardedState{
		n:     n,
		sbits: sbits,
		sdim:  sdim,
		clen:  clen,
		amp:   complex(1/math.Sqrt(float64(dim)), 0),
		parts: make([]float64, 2*(dim/clen)),
	}
	limit := sbits
	if shardBits > 0 && sbits%2 == 1 {
		limit = sbits - 1 // the straddle pair (sbits−1, sbits) belongs to the exchange
	}
	for i := 0; i < k; i++ {
		// The owning worker is a shard's parallelism; a lone shard has none
		// and rides the chunk pool like any State.
		sh := &State{n: sbits, amps: make([]complex128, sdim), serial: shardBits > 0}
		ampBytes.Add(int64(16 * sdim))
		r := NewLayerRunner(sh)
		r.amp = ss.amp // uniform amplitude of the GLOBAL register
		r.clen = clen
		if shardBits > 0 {
			r.limit = limit
		}
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
	ss.opMirror = ss.mirrorBody
	ss.opFill = func(w int) {
		amps := ss.shards[w].amps
		for i := range amps {
			amps[i] = ss.amp
		}
	}
	ss.opReduce = func(w int) {
		cps := ss.sdim / ss.clen
		for c := 0; c < cps; c++ {
			gc := w*cps + c
			lo := gc * ss.clen
			ss.parts[2*gc], ss.parts[2*gc+1] = ss.redBody(lo, lo+ss.clen)
		}
	}

	ss.grp = newShardGroup(k - 1)
	if k > 1 {
		// Only helper goroutines need one; on a lone shard it would keep
		// the amplitudes of a dropped state alive for an extra GC cycle.
		runtime.SetFinalizer(ss, (*ShardedState).Close)
	}
	return ss
}

// Close stops the shard workers. The state must not be used afterwards.
// Close is idempotent and runs automatically (via finalizer) when a
// state with workers is garbage collected, so dropped states never leak
// goroutines.
func (ss *ShardedState) Close() {
	if ss.grp != nil {
		ss.grp.close()
		ss.grp = nil
	}
	runtime.SetFinalizer(ss, nil)
}

// SetMirror makes Layer treat the state as a half register (mirror.go)
// or, with false, as the full register again. Pooled states are handed
// from one kind of evolution to the other, so every owner sets it.
func (ss *ShardedState) SetMirror(on bool) {
	ss.mirror = on
	if len(ss.shards) == 1 {
		ss.runners[0].SetMirror(on) // one shard: its runner sweeps every qubit
	}
}

// NumQubits returns the register width n.
func (ss *ShardedState) NumQubits() int { return ss.n }

// Dim returns the Hilbert-space dimension 2^n.
func (ss *ShardedState) Dim() int { return len(ss.shards) * ss.sdim }

// NumShards returns the shard count 2^shardBits.
func (ss *ShardedState) NumShards() int { return len(ss.shards) }

// ShardDim returns the amplitudes per shard, 2^(n−shardBits).
func (ss *ShardedState) ShardDim() int { return ss.sdim }

// Shard returns shard i: the 2^(n−shardBits)-qubit-dimension slice of
// amplitudes whose global index has high bits i — the whole register
// when there is one shard. With more, the returned State is
// serial-pinned; reading it is always safe between operations.
func (ss *ShardedState) Shard(i int) *State { return ss.shards[i] }

// Amplitude returns the amplitude of global basis state |index⟩.
func (ss *ShardedState) Amplitude(index uint64) complex128 {
	return ss.shards[index>>uint(ss.sbits)].amps[index&uint64(ss.sdim-1)]
}

// FillUniform overwrites the state with the uniform superposition, each
// worker filling its own shard (a lone shard fills itself, on the chunk
// pool from ParallelDim).
func (ss *ShardedState) FillUniform() {
	g := ss.group()
	if len(ss.shards) == 1 {
		ss.shards[0].FillUniform()
		return
	}
	g.run(ss.opFill)
}

func (ss *ShardedState) group() *shardGroup {
	if ss.grp == nil {
		panic("quantum: operation on a closed ShardedState")
	}
	return ss.grp
}

// Layer applies one fused QAOA stage — optional uniform refill, the
// caller's phase separator, RX(theta) on every qubit — with amplitudes
// bit-identical to LayerRunner.Layer on a plain State. The phase
// callback receives the shard's global base offset plus shard-LOCAL
// chunk bounds (off+lo … off+hi is the global range), over the global
// fixed chunk geometry; nil skips the phase. Everything below the
// shard-index qubits runs in-shard on the owning workers; the top
// qubits run as cross-shard exchange passes.
func (ss *ShardedState) Layer(theta float64, fill bool, phase func(off, lo, hi int)) {
	ss.theta, ss.fill, ss.phaseFn = theta, fill, phase

	g := ss.group()
	g.run(ss.opLayer) // fill + phase + all RX pairs below the exchange qubits
	ss.phaseFn = nil
	if len(ss.shards) == 1 {
		return // the shard's runner swept every qubit
	}
	ss.rx = newRXCoef(theta)

	// Exchange passes, ascending qubit order: the straddle pair when the
	// shard width is odd, then one 4-shard pass per shard-index pair,
	// then the odd final qubit — or a half register's mirror exchange
	// with that qubit fused in.
	q := ss.sbits
	if ss.sbits%2 == 1 {
		g.run(ss.opPair)
		q = ss.sbits + 1
	}
	for ; q+1 < ss.n; q += 2 {
		ss.exB0, ss.exB1 = q-ss.sbits, q+1-ss.sbits
		g.run(ss.opQuad)
	}
	switch {
	case ss.mirror:
		g.run(ss.opMirror)
	case ss.n%2 == 1:
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

// mirrorBody is a half register's mirror exchange (mirror.go): global
// index i = w·sdim + l meets M−1−i = (K−1−w)·sdim + (sdim−1−l), so shard
// w exchanges with shard K−1−w, local ranges reversed. The K workers
// split the representative range evenly. Fused with the odd final qubit
// T = M/2: a quarter shard of representatives each, in shard w/4, with
// partners in shards w/4 + K/2 (i+T), K−1−w/4 (M−1−i) and K/2−1−w/4
// (T−1−i). Unfused: half a shard each, in shard w/2.
func (ss *ShardedState) mirrorBody(w int) {
	k := len(ss.shards)
	if mirrorFused(ss.n) {
		span := ss.sdim >> 2
		s0, h := w>>2, k>>1
		lo := (w & 3) * span
		hi := lo + span
		rlo, rhi := ss.sdim-hi, ss.sdim-lo
		rxQuadMirror(ss.shards[s0].amps[lo:hi], ss.shards[s0+h].amps[lo:hi],
			ss.shards[k-1-s0].amps[rlo:rhi], ss.shards[h-1-s0].amps[rlo:rhi],
			ss.rx.cc, ss.rx.cm, ss.rx.mm)
		return
	}
	span := ss.sdim >> 1
	s0 := w >> 1
	lo := (w & 1) * span
	hi := lo + span
	rxDuoMirror(ss.shards[s0].amps[lo:hi], ss.shards[k-1-s0].amps[ss.sdim-hi:ss.sdim-lo], ss.rx.c, ss.rx.s)
}

// Reduce evaluates body over every fixed-geometry chunk of the GLOBAL
// index range [0, 2^n) — each chunk executed by the worker owning its
// shard — and combines the per-chunk partials left-to-right in global
// chunk order: the exact merge of ReduceChunks, which is what a lone
// shard runs, so reductions are bit-identical at every shard count.
// body receives global [lo, hi) bounds; use ShardDim to map into
// shard-local ranges.
func (ss *ShardedState) Reduce(body func(lo, hi int) (a, b float64)) (a, b float64) {
	g := ss.group()
	if len(ss.shards) == 1 {
		return ReduceChunks(ss.sdim, body)
	}
	ss.redBody = body
	g.run(ss.opReduce)
	ss.redBody = nil
	nc := ss.Dim() / ss.clen
	for c := 0; c < nc; c++ {
		a += ss.parts[2*c]
		b += ss.parts[2*c+1]
	}
	return a, b
}
