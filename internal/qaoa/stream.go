package qaoa

import (
	"math/bits"

	"qaoaml/internal/graph"
	"qaoaml/internal/quantum"
)

// Streaming cost path for large MaxCut instances.
//
// The materialized diagKernel needs a float64 cost table plus an int32
// index table as long as the state vector — 6 MiB at n = 20, 100 MiB at
// n = 24 — on top of the state vector itself, just to look up C(z) per
// amplitude. The streamKernel eliminates both tables: C(z) is
// recomputed on the fly, chunk by chunk over the same fixed geometry
// every other kernel uses (quantum.ChunkLen amplitudes per chunk).
//
// A cut has no linear terms, so the kernel serves a half register
// (workspace.go): it is built for the 2^(n−1) basis states with vertex
// n−1 in partition 0, whose edges are ordinary high-endpoint edges with
// that bit always clear.
//
// Within a chunk, the low cb = log2(chunk length) bits of z run through
// all values while the high bits are frozen, so the cut splits into
// three independent parts:
//
//	C(z) = Cll(zl)  +  cross(zl, zh)  +  Chh(zh)
//
//   - Cll, the cut over edges with BOTH endpoints below cb, depends
//     only on the chunk-local bits: it is precomputed ONCE at kernel
//     construction into a 2^cb table (≤ 256 KiB — chunk-sized, not
//     state-sized) shared by every chunk.
//   - Chh, the cut over edges with both endpoints at/above cb, is a
//     per-chunk constant, computed once per chunk in O(|E|).
//   - The cross edges (u < cb ≤ v) contribute base + Σ_{u: zl_u=1} d_u,
//     where base and the per-low-vertex deltas d_u are fixed by the
//     chunk's high bits. The linear term updates in O(1) per increment
//     of zl: when zl−1 → zl flips the trailing run up to bit t =
//     TrailingZeros(zl), the sum changes by d_t − Σ_{u<t} d_u — a
//     prefix-sum lookup.
//
// The old path walked each flipped vertex's adjacency list per step
// (O(degree) branchy work per amplitude, ~40% of evaluation time at
// n=20); this one is a table load and two adds per amplitude.
//
// Because the per-chunk values depend only on the chunk bounds (which
// the fixed geometry pins) and the scratch buffers are per-chunk, the
// streamed expectation, phase application, and gradient matrix elements
// are bit-identical at every GOMAXPROCS — and, for integer-weighted
// graphs, bit-identical to the materialized path: cut accumulation runs
// in int64 (exact), the per-distinct-value factor arithmetic matches
// diagKernel's, and the chunk reductions share their geometry.
// Float-weighted graphs stream per-amplitude phases through math.Sincos
// (no finite distinct-value set to memoize), which agrees with the
// materialized path to rounding error.

// StreamingThreshold is the qubit count from which NewProblem stops
// materializing the 2^n cut table and evaluates in streaming mode. At
// n = 13 the table pair costs 96 KiB + 32 KiB — already bigger than the
// reduction chunk — and doubles per qubit.
const StreamingThreshold = 13

// maxStreamFactorTable caps the distinct-cut phase-factor table of the
// integer-weighted streaming path. Graphs whose cut-value range exceeds
// it (extreme weights) fall back to per-amplitude Sincos streaming.
const maxStreamFactorTable = 1 << 16

// maxStreamChunkBits bounds the chunk width the kernel's stack arrays
// are sized for; quantum.LargeReduceChunkLen = 2^15 keeps us below it.
const maxStreamChunkBits = 16

// streamKernel evaluates the MaxCut phase separator and observable
// directly from the edge list. It is immutable after construction and
// safe for concurrent use (scratch comes from a per-kernel freelist).
type streamKernel struct {
	scratch scratchList

	n  int     // qubits of the half register: the graph's vertices less one
	m  float64 // total edge weight
	cb int     // chunk width in bits: log2(min(ChunkLen(2^n), 2^n))

	// Low-low cut table Cll, indexed by the chunk-local bits of z.
	// Exactly one of the two is built, per the integer flag.
	cllInt []int64
	cllF   []float64

	// Cross edges (low endpoint u < cb ≤ high endpoint v), CSR by u.
	crossStart []int32
	crossVert  []int32
	crossWF    []float64
	crossWInt  []int64

	// High-high edges (both endpoints ≥ cb).
	hhU, hhV []int32
	hhWF     []float64
	hhWInt   []int64

	// Integer path: cut values are exact int64 in [cmin, cmin+len(genTab)),
	// and genTab[c−cmin] is the phase generator h = (m − 2c)/2 of cut
	// value c — the distinct-value table the phase factors and the
	// gradient's H_γ matrix elements are indexed through.
	integer bool
	cmin    int64
	genTab  []float64
}

// newStreamKernel builds the streaming kernel for a graph. totalWeight
// is the problem's TotalWeight (kept explicit so the phase convention
// matches the materialized kernel exactly).
func newStreamKernel(g *graph.Graph, totalWeight float64) *streamKernel {
	k := &streamKernel{scratch: newScratchList(), n: g.N - 1, m: totalWeight}
	dim := 1 << uint(k.n)
	clen := quantum.ChunkLen(dim)
	if clen > dim {
		clen = dim
	}
	k.cb = bits.TrailingZeros(uint(clen))

	edges := g.Edges()
	weights := g.Weights()
	if g.IntegerWeighted() {
		var cmin, cmax int64
		for _, w := range weights {
			if w < 0 {
				cmin += int64(w)
			} else {
				cmax += int64(w)
			}
		}
		if cmax-cmin+1 <= maxStreamFactorTable {
			k.integer = true
			k.cmin = cmin
			k.genTab = make([]float64, cmax-cmin+1)
			for j := range k.genTab {
				k.genTab[j] = (k.m - 2*float64(cmin+int64(j))) / 2
			}
		}
	}

	// Classify edges by where their endpoints fall relative to the
	// chunk width. Normalize so e.U ≤ e.V per edge.
	var lowU, lowV []int32
	var lowW []float64
	k.crossStart = make([]int32, k.cb+1)
	for _, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		switch {
		case v < k.cb:
			lowU, lowV = append(lowU, int32(u)), append(lowV, int32(v))
		case u >= k.cb:
			k.hhU, k.hhV = append(k.hhU, int32(u)), append(k.hhV, int32(v))
		default:
			k.crossStart[u+1]++
		}
	}
	for u := 1; u <= k.cb; u++ {
		k.crossStart[u] += k.crossStart[u-1]
	}
	nCross := int(k.crossStart[k.cb])
	k.crossVert = make([]int32, nCross)
	k.crossWF = make([]float64, nCross)
	k.hhWF = make([]float64, 0, len(k.hhU))
	fill := append([]int32(nil), k.crossStart[:k.cb]...)
	li, hh := 0, 0
	for i, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		switch {
		case v < k.cb:
			lowW = append(lowW, weights[i])
			li++
		case u >= k.cb:
			k.hhWF = append(k.hhWF, weights[i])
			hh++
		default:
			k.crossVert[fill[u]] = int32(v)
			k.crossWF[fill[u]] = weights[i]
			fill[u]++
		}
	}

	// The one-time low-low table: O(2^cb · |lowE|) construction, 2^cb
	// entries shared by every chunk thereafter.
	nLow := 1 << uint(k.cb)
	if k.integer {
		k.crossWInt = make([]int64, len(k.crossWF))
		for i, w := range k.crossWF {
			k.crossWInt[i] = int64(w)
		}
		k.hhWInt = make([]int64, len(k.hhWF))
		for i, w := range k.hhWF {
			k.hhWInt[i] = int64(w)
		}
		k.cllInt = make([]int64, nLow)
		for z := range k.cllInt {
			var c int64
			for i := range lowU {
				if (z>>uint(lowU[i]))&1 != (z>>uint(lowV[i]))&1 {
					c += int64(lowW[i])
				}
			}
			k.cllInt[z] = c
		}
	} else {
		k.cllF = make([]float64, nLow)
		for z := range k.cllF {
			c := 0.0
			for i := range lowU {
				if (z>>uint(lowU[i]))&1 != (z>>uint(lowV[i]))&1 {
					c += lowW[i]
				}
			}
			k.cllF[z] = c
		}
	}
	return k
}

// streamScratch holds one chunk's worth of generated cost data.
type streamScratch struct {
	idx []int32
	gen []float64
}

// scratchList recycles chunk scratch through a bounded channel, one
// list per kernel. The previous global sync.Pool had per-P caches that
// every GC cleared, so long runs re-allocated scratch once per P per GC
// cycle — bytes/op grew with GOMAXPROCS (the n=20 parallel regression
// BENCH_qaoa.json recorded). A channel freelist survives GC and is
// shared across Ps: in steady state at most maxPoolWorkers buffers
// circulate and warm chunk bodies allocate nothing.
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

// chunkSetupInt computes the chunk-constant part of the cut for the
// chunk whose base state is lo — high-high edges plus the cross edges
// whose high endpoint sits in partition 1 — and the per-low-vertex
// deltas d (the cross contribution toggled by setting low bit u) with
// their prefix sums p[u] = Σ_{x<u} d[x].
func (k *streamKernel) chunkSetupInt(lo uint64, d, p *[maxStreamChunkBits]int64) int64 {
	var base int64
	for i, u := range k.hhU {
		if (lo>>uint(u))&1 != (lo>>uint(k.hhV[i]))&1 {
			base += k.hhWInt[i]
		}
	}
	var acc int64
	for u := 0; u < k.cb; u++ {
		p[u] = acc
		var du int64
		for e := k.crossStart[u]; e < k.crossStart[u+1]; e++ {
			w := k.crossWInt[e]
			if (lo>>uint(k.crossVert[e]))&1 != 0 {
				base += w // zh_v = 1: edge cut while zl_u = 0
				du -= w
			} else {
				du += w
			}
		}
		d[u] = du
		acc += du
	}
	return base
}

// chunkSetupFloat is chunkSetupInt with float64 weights.
func (k *streamKernel) chunkSetupFloat(lo uint64, d, p *[maxStreamChunkBits]float64) float64 {
	base := 0.0
	for i, u := range k.hhU {
		if (lo>>uint(u))&1 != (lo>>uint(k.hhV[i]))&1 {
			base += k.hhWF[i]
		}
	}
	acc := 0.0
	for u := 0; u < k.cb; u++ {
		p[u] = acc
		du := 0.0
		for e := k.crossStart[u]; e < k.crossStart[u+1]; e++ {
			w := k.crossWF[e]
			if (lo>>uint(k.crossVert[e]))&1 != 0 {
				base += w
				du -= w
			} else {
				du += w
			}
		}
		d[u] = du
		acc += du
	}
	return base
}

// fillCut writes C(z) for the chunk [lo, hi) into cut (float64 values;
// exact on the integer path). lo is chunk-aligned and hi−lo = 2^cb, so
// the chunk-local bits of z are exactly the buffer index.
func (k *streamKernel) fillCut(lo, hi int, cut []float64) {
	if k.integer {
		var d, p [maxStreamChunkBits]int64
		base := k.chunkSetupInt(uint64(lo), &d, &p)
		cll := k.cllInt
		var lin int64
		cut[0] = float64(base + cll[0])
		for i := 1; i < hi-lo; i++ {
			t := bits.TrailingZeros64(uint64(i))
			lin += d[t] - p[t]
			cut[i] = float64(base + cll[i] + lin)
		}
		return
	}
	var d, p [maxStreamChunkBits]float64
	base := k.chunkSetupFloat(uint64(lo), &d, &p)
	cll := k.cllF
	lin := 0.0
	cut[0] = base + cll[0]
	for i := 1; i < hi-lo; i++ {
		t := bits.TrailingZeros64(uint64(i))
		lin += d[t] - p[t]
		cut[i] = base + cll[i] + lin
	}
}

// fillIdx writes the factor-table index C(z)−cmin for the chunk
// [lo, hi) into idx. Integer path only.
func (k *streamKernel) fillIdx(lo, hi int, idx []int32) {
	var d, p [maxStreamChunkBits]int64
	base := k.chunkSetupInt(uint64(lo), &d, &p) - k.cmin
	cll := k.cllInt
	var lin int64
	idx[0] = int32(base + cll[0])
	for i := 1; i < hi-lo; i++ {
		t := bits.TrailingZeros64(uint64(i))
		lin += d[t] - p[t]
		idx[i] = int32(base + cll[i] + lin)
	}
}

// fillGen writes the phase generator h(z) = (m − 2C(z))/2 for the chunk
// [lo, hi) into gen — the same convention the materialized Problem
// kernel factorizes. Float path only: integer kernels index genTab.
func (k *streamKernel) fillGen(lo, hi int, gen []float64) {
	var d, p [maxStreamChunkBits]float64
	base := k.chunkSetupFloat(uint64(lo), &d, &p)
	cll := k.cllF
	lin := 0.0
	gen[0] = (k.m - 2*(base+cll[0])) / 2
	for i := 1; i < hi-lo; i++ {
		t := bits.TrailingZeros64(uint64(i))
		lin += d[t] - p[t]
		gen[i] = (k.m - 2*(base+cll[i]+lin)) / 2
	}
}

// --- costKernel implementation ---

func (k *streamKernel) qubits() int { return k.n }

func (k *streamKernel) mirror() bool { return true }

func (k *streamKernel) factorLen() int { return len(k.genTab) }

// prepareFactors fills the per-distinct-cut phase factor table
// exp(iγ(m−2c)/2) with the exact arithmetic diagKernel uses for the
// same distinct values. The float path has no finite distinct set and
// streams phases per amplitude instead.
func (k *streamKernel) prepareFactors(factors []complex128, gamma float64, conj bool) {
	prepareFactorTable(factors, k.genTab, gamma, conj)
}

func (k *streamKernel) applyPhaseRange(st *quantum.State, factors []complex128, gamma float64, off, lo, hi int) {
	ws := k.scratch.get()
	if k.integer {
		idx := ws.idxBuf(hi - lo)
		k.fillIdx(off+lo, off+hi, idx)
		st.MulDiagonalIndexedRange(lo, idx, factors)
	} else {
		gen := ws.genBuf(hi - lo)
		k.fillGen(off+lo, off+hi, gen)
		st.MulPhaseGenRange(lo, gen, gamma)
	}
	k.scratch.put(ws)
}

func (k *streamKernel) expectChunk(st *quantum.State, off, lo, hi int) float64 {
	ws := k.scratch.get()
	cut := ws.genBuf(hi - lo)
	k.fillCut(off+lo, off+hi, cut)
	e := st.ExpectationDiagonalRange(lo, cut)
	k.scratch.put(ws)
	return e
}

func (k *streamKernel) seedChunkValue(adj, st *quantum.State, off, lo, hi int) float64 {
	ws := k.scratch.get()
	cut := ws.genBuf(hi - lo)
	k.fillCut(off+lo, off+hi, cut)
	e := adj.SeedDiagonalRange(st, lo, cut)
	k.scratch.put(ws)
	return e
}

func (k *streamKernel) unphaseInnerChunk(adj, st *quantum.State, factors []complex128, gamma float64, off, lo, hi int) (im float64) {
	ws := k.scratch.get()
	if k.integer {
		idx := ws.idxBuf(hi - lo)
		k.fillIdx(off+lo, off+hi, idx)
		im = adj.InnerImMulIndexedRange(st, lo, idx, k.genTab, factors)
	} else {
		gen := ws.genBuf(hi - lo)
		k.fillGen(off+lo, off+hi, gen)
		im = adj.InnerImMulPhaseGenRange(st, lo, gen, -gamma)
	}
	k.scratch.put(ws)
	return im
}
