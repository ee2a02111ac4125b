package qaoa

import (
	"math"
	"math/bits"

	"qaoaml/internal/problem"
	"qaoaml/internal/quantum"
)

// Streaming cost path: every instance from StreamingThreshold, and below
// it a float-coefficient one whose phase values are mostly distinct
// (newIsingKernel), where one Sincos per distinct value would be one per
// amplitude.
//
// The materialized diagKernel needs a float64 cost table plus an int32
// index table as long as the state vector — 6 MiB at n = 20, 100 MiB at
// n = 24 — on top of the state vector itself, just to look up C(z) per
// amplitude. The isingStreamKernel holds neither: C(z) is recomputed on
// the fly, chunk by chunk over the same fixed geometry every other
// kernel uses (quantum.ChunkLen amplitudes per chunk: the whole register
// through 13 evolved qubits).
//
// The Hamiltonian is evaluated through the doubled accumulator
//
//	T(z) = Σ_q (2J_q)·s_i·s_j + Σ_i (2h_i)·s_i
//
// so that instances with half-integral couplings (every MaxCut:
// J = −w/2) still take the exact int64 path. The observable and phase
// generator recover from T exactly:
//
//	Score(z) = sense·Offset + sense·T(z)/2
//	gen(z)   = −sense·T(z)/2
//
// (phase factor e^{iγ·gen(z)}, matching diagKernel's convention: for an
// integer-weight MaxCut, T = 2C − m, so gen = (m − 2C)/2 and Score = C
// bit for bit).
//
// Within a chunk the low cb = log2(chunk length) bits of z run through
// all values while the high bits are frozen, so T splits into three
// independent parts:
//
//   - quadratic terms with both spins below cb and linear terms below
//     cb depend only on the chunk-local bits: they fold into a 2^cb
//     table built ONCE at construction (≤ 256 KiB — chunk-sized, not
//     state-sized) shared by every chunk, term by term over the runs of
//     z_l where the term's sign is constant (addTerm: one add per entry
//     per term, no branch on z_l);
//   - terms entirely in the high bits are a per-chunk constant,
//     computed once per chunk in O(terms);
//   - cross terms (i < cb ≤ j) reduce, for frozen high bits, to
//     base + Σ_{u: zl_u=1} d_u, with base and the per-low-spin deltas
//     d_u fixed by the chunk's high bits. That linear form updates in
//     O(1) per increment of zl: when zl−1 → zl flips the trailing run up
//     to bit t = TrailingZeros(zl), the sum changes by d_t − Σ_{u<t} d_u
//     — a prefix-sum lookup. Per amplitude that is a table load and two
//     adds, not an O(degree) walk over each flipped spin's adjacency.
//     (The integer fills take the recurrence over one block of low
//     values per chunk and add each block's own part: linBlock.)
//
// All per-chunk values depend only on the chunk bounds (which the fixed
// geometry pins) and the scratch buffers are per-chunk, so the streamed
// expectation, phase application and gradient matrix elements are
// bit-identical at every GOMAXPROCS; on the integer path they are also
// bit-identical to the materialized kernel, which derives its tables
// from the same T accumulator and applies the same per-distinct-value
// factor arithmetic over the same chunk reductions. Float coefficients
// have no bounded distinct-value set to memoize: their chunk's phase
// factors are built by doubling from one rotation per chunk bit and per
// in-chunk coupling (fillPhase) — two complex multiplies per amplitude,
// no per-amplitude Sincos — and agree with the materialized path to
// rounding error: a few ε per multiply along a chain of at most
// 1 + cb + cb(cb−1)/2 factors, plus the |θ|·ε every evaluation of an
// angle θ carries (|θ| up to γ·Σ|coef|: 1e5 rad on a partition).
//
// For a half register (workspace.go) the kernel is built for the lower
// 2^(N−1) basis states: the chunk geometry follows that dimension, and
// terms on spin N−1 are ordinary high-bit terms whose bit is never set.

// StreamingThreshold is the qubit count from which every problem's
// kernel streams. Below it an instance that memoizes cheaply
// (newIsingKernel) keeps materialized tables of 12 B per amplitude —
// 192 KiB at n = 14 — for as long as its Problem lives. Per
// value+gradient the stream kernel takes 5–40 % longer than the memo on
// the low-share families at every n measured through 18, and the memo's
// build costs 0.6–4.2 value+gradients there (BenchmarkKernelChoice;
// EXPERIMENTS.md): the threshold is set by memory, not speed. 15
// memoizes every register the served cold mixes draw (n ≤ 14) and
// leaves the larger ones table-free.
const StreamingThreshold = 15

// maxStreamFactorTable caps the distinct-value phase-factor table of
// the integer streaming path. Instances whose T range exceeds it (every
// partition of a useful size) take the float path.
const maxStreamFactorTable = 1 << 16

// maxStreamChunkBits bounds the chunk width the kernel's stack arrays
// are sized for; quantum.LargeReduceChunkLen = 2^15 keeps us below it.
const maxStreamChunkBits = 16

// isingStreamKernel evaluates an arbitrary diagonal Hamiltonian from
// its term lists. Immutable after construction; scratch comes from the
// kernel's own bounded freelist.
type isingStreamKernel struct {
	scratch scratchList

	n           int     // qubits of the evolved register: N, or N−1 when half
	half        bool    // built for the lower half of a FieldFree instance
	sense       float64 // +1 maximize, −1 minimize
	senseOffset float64 // sense·Offset: the constant part of Score
	cb          int     // chunk width in bits

	// Low-low table: T restricted to terms living in the chunk bits.
	tllInt []int64
	tllF   []float64

	// Cross quadratic terms (low spin u < cb ≤ high spin v), CSR by u.
	crossStart []int32
	crossVert  []int32
	crossAInt  []int64
	crossAF    []float64

	// Terms entirely in the high bits: quadratic (u, v ≥ cb) and linear.
	hhU, hhV []int32
	hhAInt   []int64
	hhAF     []float64
	hiLinIdx []int32
	hiLinInt []int64
	hiLinF   []float64

	// Integer path: T is exact int64 in [tmin, −tmin] and T ≡ tmin
	// (mod 2) for every z — each term contributes ±a — so
	// genTab[(T−tmin)/2] = genFromT(T) is the distinct-value table the
	// phase factors and the gradient's H_γ matrix elements are indexed
	// through.
	integer bool
	tmin    int64
	genTab  []float64

	// Float path, for fillPhase. lowFlip[t] is what flipping low spin t
	// alone adds to the in-chunk part of T (T(2^t) − T(0) over those
	// terms). pairGen is what that flip adds to gen on top when the lower
	// spin j of an in-chunk pair (j, t) is already down: −sense·2a,
	// repeated (j, t) terms summed, zero sums dropped — CSR by t, j
	// ascending. A stage prepares one rotation per entry (prepareFactors).
	lowFlip   []float64
	pairStart []int32
	pairLow   []int32
	pairGen   []float64
}

// newIsingStreamKernel builds the streaming kernel for an instance,
// over all basis states or (half) the lower half.
func newIsingStreamKernel(in *problem.Instance, half bool) *isingStreamKernel {
	k := &isingStreamKernel{
		scratch:     newScratchList(),
		n:           in.N,
		half:        half,
		sense:       in.Sense.Sign(),
		senseOffset: in.Sense.Sign() * in.Offset,
	}
	if half {
		k.n--
	}
	dim := 1 << uint(k.n)
	clen := quantum.ChunkLen(dim)
	if clen > dim {
		clen = dim
	}
	k.cb = bits.TrailingZeros(uint(clen))

	// Doubled coefficients: a_q = 2J_q per quadratic term, g_i = 2h_i.
	if in.IntegerCoeffs() {
		var span int64
		for _, t := range in.Quad {
			span += int64(math.Abs(2 * t.W))
		}
		for _, h := range in.Linear {
			span += int64(math.Abs(2 * h))
		}
		if span+1 <= maxStreamFactorTable {
			k.integer = true
			k.tmin = -span
			k.genTab = make([]float64, span+1)
			for j := range k.genTab {
				k.genTab[j] = k.genFromT(k.tmin + 2*int64(j))
			}
		}
	}

	// One-time low-bits table: T over the in-chunk terms per local state,
	// summed term by term (addTerm) as the classification below meets
	// them — couplings, then fields: the order the float bits are pinned
	// to. On the float path, flipping one low spin negates the terms it is
	// in: lowFlip sums those, where tllF[2^t] − tllF[0] would carry the
	// rounding of every low term into each of the cb differences.
	nLow := 1 << uint(k.cb)
	var step []float64 // float path: pair steps [t·cb + j], j < t
	if k.integer {
		k.tllInt = make([]int64, nLow)
	} else {
		k.tllF, k.lowFlip, step = make([]float64, nLow), make([]float64, k.cb), make([]float64, k.cb*k.cb)
	}
	addLow := func(a float64, i, j int) {
		if k.integer {
			addTerm(k.tllInt, int64(a), i, j)
			return
		}
		addTerm(k.tllF, a, i, j)
		k.lowFlip[i] -= 2 * a
		if j >= 0 {
			k.lowFlip[j] -= 2 * a
			step[j*k.cb+i] -= k.sense * 2 * a
		}
	}

	// Classify quadratic terms against the chunk width (i < j already).
	k.crossStart = make([]int32, k.cb+1)
	for _, t := range in.Quad {
		switch {
		case t.J < k.cb:
			addLow(2*t.W, t.I, t.J)
		case t.I >= k.cb:
			k.hhU, k.hhV = append(k.hhU, int32(t.I)), append(k.hhV, int32(t.J))
			k.hhAF = append(k.hhAF, 2*t.W)
		default:
			k.crossStart[t.I+1]++
		}
	}
	for u := 1; u <= k.cb; u++ {
		k.crossStart[u] += k.crossStart[u-1]
	}
	nCross := int(k.crossStart[k.cb])
	k.crossVert = make([]int32, nCross)
	k.crossAF = make([]float64, nCross)
	fill := append([]int32(nil), k.crossStart[:k.cb]...)
	for _, t := range in.Quad {
		if t.J >= k.cb && t.I < k.cb {
			k.crossVert[fill[t.I]] = int32(t.J)
			k.crossAF[fill[t.I]] = 2 * t.W
			fill[t.I]++
		}
	}
	// Linear terms split by chunk width; low ones fold into the table.
	for i, h := range in.Linear {
		if h == 0 {
			continue
		}
		if i < k.cb {
			addLow(2*h, i, -1)
		} else {
			k.hiLinIdx = append(k.hiLinIdx, int32(i))
			k.hiLinF = append(k.hiLinF, 2*h)
		}
	}

	if k.integer {
		k.crossAInt, k.hhAInt, k.hiLinInt = int64s(k.crossAF), int64s(k.hhAF), int64s(k.hiLinF)
		return k
	}
	k.pairStart = make([]int32, k.cb+1)
	for t := 0; t < k.cb; t++ {
		for j, g := range step[t*k.cb : t*k.cb+t] {
			if g != 0 {
				k.pairLow, k.pairGen = append(k.pairLow, int32(j)), append(k.pairGen, g)
			}
		}
		k.pairStart[t+1] = int32(len(k.pairGen))
	}
	return k
}

func int64s(f []float64) []int64 {
	out := make([]int64, len(f))
	for i, x := range f {
		out[i] = int64(x)
	}
	return out
}

// streamScratch holds one chunk's worth of generated cost data.
type streamScratch struct {
	idx   []int32
	gen   []float64
	phase []complex128
}

// scratchList recycles chunk scratch through a bounded channel, one
// list per kernel. Not a sync.Pool: its per-P caches are cleared by
// every GC, so long runs would re-allocate scratch once per P per GC
// cycle and bytes/op would grow with GOMAXPROCS. A channel freelist
// survives GC and is shared across Ps: in steady state at most
// maxPoolWorkers buffers circulate and warm chunk bodies allocate
// nothing.
type scratchList struct {
	ch chan *streamScratch
}

func newScratchList() scratchList {
	return scratchList{ch: make(chan *streamScratch, 64)}
}

func (l scratchList) get() *streamScratch {
	select {
	case ws := <-l.ch:
		return ws
	default:
		return new(streamScratch)
	}
}

func (l scratchList) put(ws *streamScratch) {
	select {
	case l.ch <- ws:
	default:
	}
}

func (ws *streamScratch) idxBuf(n int) []int32 {
	if cap(ws.idx) < n {
		ws.idx = make([]int32, n)
	}
	return ws.idx[:n]
}

func (ws *streamScratch) genBuf(n int) []float64 {
	if cap(ws.gen) < n {
		ws.gen = make([]float64, n)
	}
	return ws.gen[:n]
}

// phaseBuf returns fillPhase's two tables for an n-amplitude chunk, one
// allocation: n factors and n/2 of doubling scratch (192 KiB at 2^13).
func (ws *streamScratch) phaseBuf(n int) (g, f []complex128) {
	if cap(ws.phase) < n+n/2 {
		ws.phase = make([]complex128, n+n/2)
	}
	return ws.phase[:n], ws.phase[n : n+n/2]
}

// scoreFromT and genFromT are the only places T becomes a float: both
// operations (int64→float64 for |T| well under 2^53, halving, sign
// flip) are exact, so every consumer sees the same doubles.
func (k *isingStreamKernel) scoreFromT(t int64) float64 {
	return k.senseOffset + k.sense*(float64(t)/2)
}

func (k *isingStreamKernel) genFromT(t int64) float64 {
	return -k.sense * (float64(t) / 2)
}

// chunkSetupInt computes the chunk-constant part of T for the chunk
// based at lo — high-high quadratic terms, high linear terms, and the
// cross-term contribution at all-zero low bits — plus the per-low-spin
// flip deltas d with their prefix sums p[u] = Σ_{x<u} d[x].
func (k *isingStreamKernel) chunkSetupInt(lo uint64, d, p *[maxStreamChunkBits]int64) int64 {
	return chunkSetup(k, lo, k.hhAInt, k.hiLinInt, k.crossAInt, d, p)
}

// chunkSetupFloat is chunkSetupInt with float64 coefficients.
func (k *isingStreamKernel) chunkSetupFloat(lo uint64, d, p *[maxStreamChunkBits]float64) float64 {
	return chunkSetup(k, lo, k.hhAF, k.hiLinF, k.crossAF, d, p)
}

func chunkSetup[T int64 | float64](k *isingStreamKernel, lo uint64, hhA, hiLin, crossA []T, d, p *[maxStreamChunkBits]T) T {
	var base T
	for i, u := range k.hhU {
		if (lo>>uint(u))&1 == (lo>>uint(k.hhV[i]))&1 {
			base += hhA[i]
		} else {
			base -= hhA[i]
		}
	}
	for i, q := range k.hiLinIdx {
		if (lo>>uint(q))&1 == 0 {
			base += hiLin[i]
		} else {
			base -= hiLin[i]
		}
	}
	var acc T
	for u := 0; u < k.cb; u++ {
		p[u] = acc
		var du T
		for e := k.crossStart[u]; e < k.crossStart[u+1]; e++ {
			av := crossA[e]
			if (lo>>uint(k.crossVert[e]))&1 != 0 {
				av = -av // s_v = −1 freezes the term to −a·s_u
			}
			base += av // low bit clear: s_u = +1
			du -= 2 * av
		}
		d[u] = du
		acc += du
	}
	return base
}

// linBlock is the block length of the integer fills: the cross-term
// linear form lin(z) = Σ_{u: z_u=1} d_u is additive over bits and the
// sums are int64, so lin(blk+j) = lin(blk) + lin(j) exactly. One
// linBlock-entry table of lin(j) per chunk and lin(blk) from blk's set
// bits leave the inner loop two independent loads and two adds per
// amplitude, where the recurrence was a serial chain through TZCNT and
// two dependent table loads. (The float fills keep the recurrence: their
// adds do not reassociate.)
const linBlock = 256

// fillLinLow writes lin(j) for j < len(linLo) by the trailing-zeros
// recurrence (see the file comment).
func fillLinLow(linLo []int64, d, p *[maxStreamChunkBits]int64) {
	var lin int64
	for j := 1; j < len(linLo); j++ {
		t := bits.TrailingZeros64(uint64(j))
		lin += d[t] - p[t]
		linLo[j] = lin
	}
}

// linOf returns lin(z) from z's set bits.
func linOf(z int, d *[maxStreamChunkBits]int64) (lin int64) {
	for x := uint64(z); x != 0; x &= x - 1 {
		lin += d[bits.TrailingZeros64(x)]
	}
	return lin
}

// fillScore writes Score(z) for the chunk [lo, hi). lo is chunk-aligned
// and hi−lo = 2^cb, so the chunk-local bits of z are exactly the buffer
// index.
func (k *isingStreamKernel) fillScore(lo, hi int, score []float64) {
	if k.integer {
		var d, p [maxStreamChunkBits]int64
		var linBuf [linBlock]int64
		base := k.chunkSetupInt(uint64(lo), &d, &p)
		n := hi - lo
		linLo := linBuf[:min(linBlock, n)]
		fillLinLow(linLo, &d, &p)
		for blk := 0; blk < n; blk += len(linLo) {
			b := base + linOf(blk, &d)
			tll, out := k.tllInt[blk:blk+len(linLo)], score[blk:blk+len(linLo)]
			for j, lin := range linLo {
				out[j] = k.scoreFromT(b + tll[j] + lin)
			}
		}
		return
	}
	var d, p [maxStreamChunkBits]float64
	base := k.chunkSetupFloat(uint64(lo), &d, &p)
	tll := k.tllF
	lin := 0.0
	score[0] = k.senseOffset + k.sense*((base+tll[0])/2)
	for i := 1; i < hi-lo; i++ {
		t := bits.TrailingZeros64(uint64(i))
		lin += d[t] - p[t]
		score[i] = k.senseOffset + k.sense*((base+tll[i]+lin)/2)
	}
}

// fillIdx writes the factor-table index (T(z)−tmin)/2 for the chunk
// [lo, hi). Integer path only.
func (k *isingStreamKernel) fillIdx(lo, hi int, idx []int32) {
	var d, p [maxStreamChunkBits]int64
	var linBuf [linBlock]int64
	base := k.chunkSetupInt(uint64(lo), &d, &p) - k.tmin
	n := hi - lo
	linLo := linBuf[:min(linBlock, n)]
	fillLinLow(linLo, &d, &p)
	for blk := 0; blk < n; blk += len(linLo) {
		b := base + linOf(blk, &d)
		tll, out := k.tllInt[blk:blk+len(linLo)], idx[blk:blk+len(linLo)]
		for j, lin := range linLo {
			out[j] = int32((b + tll[j] + lin) >> 1)
		}
	}
}

// fillGen writes the phase generator gen(z) = −sense·T(z)/2 for the
// chunk [lo, hi). Float path only: integer kernels index genTab.
func (k *isingStreamKernel) fillGen(lo, hi int, gen []float64) {
	var d, p [maxStreamChunkBits]float64
	base := k.chunkSetupFloat(uint64(lo), &d, &p)
	tll := k.tllF
	lin := 0.0
	gen[0] = -k.sense * ((base + tll[0]) / 2)
	for i := 1; i < hi-lo; i++ {
		t := bits.TrailingZeros64(uint64(i))
		lin += d[t] - p[t]
		gen[i] = -k.sense * ((base + tll[i] + lin) / 2)
	}
}

// fillPhase writes the phase factors g[z] = e^{i·scale·gen(z)} of the
// chunk based at lo. Float path only; w holds e^{i·scale·pairGen[e]}
// (prepareFactors) and f is scratch of half the chunk.
//
// With the high bits frozen gen is a quadratic form in the chunk's low
// bits, so setting bit t on top of a pattern r < 2^t adds
//
//	Δ_t(r) = Δ_t(0) + Σ_{j<t, r_j=1} pairGen(j, t),
//	Δ_t(0) = −sense·(lowFlip_t + d_t)/2,
//
// which is linear in r's bits: f[r] = e^{i·scale·Δ_t(r)} doubles one bit
// j at a time, f[2^j + r'] = f[r']·w_tj (a copy where j and t share no
// coupling), and g doubles one bit t at a time, g[2^t + r] = g[r]·f[r].
// That is two complex multiplies per amplitude and 1 + cb Sincos per
// chunk, against one Sincos per amplitude for e^{i·scale·gen(z)} taken
// directly. g[z] is a product of at most 1 + cb + cb(cb−1)/2 unit
// factors, each a function of (lo, scale) alone, so every layout and
// GOMAXPROCS computes the same bits.
func (k *isingStreamKernel) fillPhase(lo int, scale float64, w, g, f []complex128) {
	var d, p [maxStreamChunkBits]float64
	base := k.chunkSetupFloat(uint64(lo), &d, &p)
	g[0] = expi(scale * (-k.sense * ((base + k.tllF[0]) / 2)))
	for t := 0; t < k.cb; t++ {
		bit := 1 << uint(t)
		f[0] = expi(scale * (-k.sense * ((k.lowFlip[t] + d[t]) / 2)))
		e, end := k.pairStart[t], k.pairStart[t+1]
		for j := 0; j < t; j++ {
			h := 1 << uint(j)
			if e < end && int(k.pairLow[e]) == j {
				phaseScale(f[h:2*h], f[:h], w[e])
				e++
			} else {
				copy(f[h:2*h], f[:h])
			}
		}
		phaseMul(g[bit:2*bit], g[:bit], f[:bit])
	}
}

// phaseScale writes dst[i] = src[i]·w, phaseMul dst[i] = a[i]·b[i]:
// fillPhase's two inner loops, over equal-length disjoint slices.
func phaseScale(dst, src []complex128, w complex128) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = src[i] * w
	}
}

func phaseMul(dst, a, b []complex128) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

func expi(x float64) complex128 {
	sin, cos := math.Sincos(x)
	return complex(cos, sin)
}

// --- costKernel implementation ---

func (k *isingStreamKernel) qubits() int { return k.n }

func (k *isingStreamKernel) mirror() bool { return k.half }

// factorGens are the generators whose rotations a stage prepares once:
// the distinct values of gen (integer path), or the low-low pair steps
// fillPhase doubles with (float path).
func (k *isingStreamKernel) factorGens() []float64 {
	if k.integer {
		return k.genTab
	}
	return k.pairGen
}

func (k *isingStreamKernel) factorLen() int { return len(k.factorGens()) }

// prepareFactors fills, on the integer path, the per-distinct-T phase
// factor table exp(iγ·gen(T)) from genTab — exactly the genFromT doubles
// the gradient's matrix elements read — and on the float path the pair
// rotations exp(iγ·pairGen) every chunk's fillPhase shares.
func (k *isingStreamKernel) prepareFactors(factors []complex128, gamma float64, conj bool) {
	quantum.PhaseFactors(factors, k.factorGens(), gamma, conj)
}

func (k *isingStreamKernel) applyPhaseRange(st *quantum.State, factors []complex128, gamma float64, lo, hi int) {
	ws := k.scratch.get()
	if k.integer {
		idx := ws.idxBuf(hi - lo)
		k.fillIdx(lo, hi, idx)
		st.MulDiagonalIndexedRange(lo, idx, factors)
	} else {
		g, f := ws.phaseBuf(hi - lo)
		k.fillPhase(lo, gamma, factors, g, f)
		st.MulRange(lo, g)
	}
	k.scratch.put(ws)
}

func (k *isingStreamKernel) expectChunk(st *quantum.State, lo, hi int) float64 {
	ws := k.scratch.get()
	score := ws.genBuf(hi - lo)
	k.fillScore(lo, hi, score)
	e := st.ExpectationDiagonalRange(lo, score)
	k.scratch.put(ws)
	return e
}

func (k *isingStreamKernel) seedChunkValue(adj, st *quantum.State, lo, hi int) float64 {
	ws := k.scratch.get()
	score := ws.genBuf(hi - lo)
	k.fillScore(lo, hi, score)
	e := adj.SeedDiagonalRange(st, lo, score)
	k.scratch.put(ws)
	return e
}

func (k *isingStreamKernel) unphaseInnerChunk(adj, st *quantum.State, factors []complex128, gamma float64, lo, hi int) (im float64) {
	ws := k.scratch.get()
	if k.integer {
		idx := ws.idxBuf(hi - lo)
		k.fillIdx(lo, hi, idx)
		im = adj.InnerImMulIndexedRange(st, lo, idx, k.genTab, factors)
	} else {
		gen := ws.genBuf(hi - lo)
		k.fillGen(lo, hi, gen)
		g, f := ws.phaseBuf(hi - lo)
		k.fillPhase(lo, -gamma, factors, g, f)
		im = adj.InnerImMulRange(st, lo, gen, g)
	}
	k.scratch.put(ws)
	return im
}
