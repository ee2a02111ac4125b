package quantum

// This file holds the per-chunk kernels a QAOA cost kernel streams:
// the phase separator's multiplies (MulDiagonalIndexedRange, MulRange),
// the adjoint seed λ = C|ψ⟩ fused with the value readout
// (SeedDiagonalRange), and the reverse sweep's fused
// inner-product-and-unphase steps (InnerImMulIndexedRange,
// InnerImMulRange). Each acts on one chunk [lo, lo+len) the caller
// hands out (a fused layer's chunk or a reduction's), and the partial
// sums combine over the fixed chunk geometry of reduce.go:
// bit-identical at every GOMAXPROCS.
// InnerProductDiagonalRange and InnerProductSumX are the unfused
// two-pass gradient reference the tests hold the fused sweep to.

// MulDiagonalIndexedRange multiplies amps[lo+i] by factors[idx[i]] over
// one chunk: the phase separator of a cost kernel with a small set of
// distinct phase values (see PhaseFactors), its index table
// materialized or generated per chunk.
func (s *State) MulDiagonalIndexedRange(lo int, idx []int32, factors []complex128) {
	s.checkRange(lo, len(idx))
	mulIndexedRange(s.amps[lo:lo+len(idx)], idx, factors)
}

// MulRange multiplies amps[lo+i] by f[i] over one chunk: the streamed
// phase separator for cost functions without a small distinct-value set
// (float couplings), whose kernel builds the chunk's phase factors
// itself.
func (s *State) MulRange(lo int, f []complex128) {
	s.checkRange(lo, len(f))
	amps := s.amps[lo : lo+len(f)]
	for i, w := range f {
		amps[i] *= w
	}
}

// SeedDiagonalRange overwrites s's amplitudes over [lo, lo+len(diag))
// with diag[i]·src[lo+i] — one chunk of the adjoint seed λ = C|ψ⟩ —
// and returns that chunk's contribution to ⟨src|C|src⟩, accumulated in
// exactly the order ExpectationDiagonalRange uses, so a gradient sweep
// streams the forward state once for both.
func (s *State) SeedDiagonalRange(src *State, lo int, diag []float64) float64 {
	s.checkRange(lo, len(diag))
	src.checkRange(lo, len(diag))
	dst, from := s.amps[lo:lo+len(diag)], src.amps[lo:lo+len(diag)]
	e := 0.0
	for i, d := range diag {
		a := from[i]
		e += (real(a)*real(a) + imag(a)*imag(a)) * d
		dst[i] = complex(real(a)*d, imag(a)*d)
	}
	return e
}

// InnerProductDiagonalRange returns one chunk's contribution to
// ⟨s|D|t⟩: Σ_i conj(s_{lo+i})·diag[i]·t_{lo+i}, accumulated in split
// real/imag form. Streaming cost kernels call it with per-chunk
// generated diagonals inside ReduceChunks.
func (s *State) InnerProductDiagonalRange(t *State, lo int, diag []float64) (re, im float64) {
	s.checkRange(lo, len(diag))
	for i, d := range diag {
		a, b := s.amps[lo+i], t.amps[lo+i]
		// conj(a)·b·d, accumulated in split real/imag form.
		re += (real(a)*real(b) + imag(a)*imag(b)) * d
		im += (real(a)*imag(b) - imag(a)*real(b)) * d
	}
	return re, im
}

// InnerImMulIndexedRange is one chunk of an adjoint reverse stage, fused:
// it returns the chunk's contribution to Im⟨s|D|t⟩ for the real
// diagonal D with entries vals[idx[i]] — accumulated exactly like the
// imaginary half of InnerProductDiagonalRange, the half the gradient
// reads — and then multiplies both states' amplitudes by
// factors[idx[i]], so the two states are read and the index table
// walked once per stage instead of once per step.
func (s *State) InnerImMulIndexedRange(t *State, lo int, idx []int32, vals []float64, factors []complex128) (im float64) {
	s.checkRange(lo, len(idx))
	t.checkRange(lo, len(idx))
	sa, ta := s.amps[lo:lo+len(idx)], t.amps[lo:lo+len(idx)]
	vals = vals[:len(factors)]
	for i, k := range idx {
		a, b := sa[i], ta[i]
		im += (real(a)*imag(b) - imag(a)*real(b)) * vals[k]
		f := factors[k]
		sa[i] = a * f
		ta[i] = b * f
	}
	return im
}

// InnerImMulRange is InnerImMulIndexedRange for diagonals without a
// small distinct-value set: D has entries gen[i] and both states are
// multiplied by f[i] (see MulRange), gen and f equally long.
func (s *State) InnerImMulRange(t *State, lo int, gen []float64, f []complex128) (im float64) {
	s.checkRange(lo, len(gen))
	t.checkRange(lo, len(gen))
	sa, ta, f := s.amps[lo:lo+len(gen)], t.amps[lo:lo+len(gen)], f[:len(gen)]
	for i, h := range gen {
		a, b := sa[i], ta[i]
		im += (real(a)*imag(b) - imag(a)*real(b)) * h
		w := f[i]
		sa[i] = a * w
		ta[i] = b * w
	}
	return im
}

// InnerProductSumX returns ⟨s| Σ_q X_q |t⟩, the matrix element of the
// transverse-field mixer generator: Σ_q Σ_z conj(s_z)·t_{z⊕2^q}. No
// allocation on the serial path. It panics if the register widths
// differ. The adjoint gradient reads its imaginary part inside the
// two-state mixer sweep instead (reverse.go); this qubit-by-qubit,
// full-complex walk shares no code with that and is its oracle.
//
// Chunking: every ⟨z|X_q|z⊕2^q⟩ pair is accumulated (both orders) at
// its representative index (the one with bit q clear), in the chunk
// holding that representative. For q below the chunk width the pair is
// chunk-local; above it, the representative chunk reads the partner
// amplitudes from the distant chunk — reads only, so chunks stay
// write-disjoint. Within a chunk the loop order is fixed (q outer,
// index inner) and chunks merge in order: bit-identical at every
// GOMAXPROCS.
func (s *State) InnerProductSumX(t *State) complex128 {
	if s.n != t.n {
		panic("quantum: qubit count mismatch in InnerProductSumX")
	}
	if reduceChunkCount(len(s.amps)) == 1 {
		re, im := sumXPartial(s.amps, t.amps, 0, len(s.amps), s.n)
		return complex(re, im)
	}
	re, im := ReduceChunks(len(s.amps), func(lo, hi int) (float64, float64) {
		return sumXPartial(s.amps, t.amps, lo, hi, s.n)
	})
	return complex(re, im)
}

// sumXPartial accumulates the Σ_q X_q matrix-element terms whose
// representative index lies in [lo, hi), qubit by qubit in ascending
// order. lo is chunk-aligned (a multiple of hi−lo when the range is one
// chunk of a larger array), so the base-stride walk stays aligned for
// every bit below the span.
func sumXPartial(sa, ta []complex128, lo, hi, n int) (re, im float64) {
	span := hi - lo
	for q := 0; q < n; q++ {
		bit := 1 << uint(q)
		// Each run is the pairs (i, i+bit) for run consecutive i. Below
		// the span, runs of bit indices alternate with their partners.
		// At and above it the whole chunk has bit q clear or set. Clear:
		// one run, every index a representative whose partner sits bit
		// elements ahead in a later chunk (read-only access). Set: the
		// partner chunk owns these pairs.
		run := min(bit, span)
		if run == span && lo&bit != 0 {
			continue
		}
		for base := lo; base < hi; base += run << 1 {
			re, im = sumXRun(re, im, sa[base:base+run], sa[base+bit:base+bit+run], ta[base:base+run], ta[base+bit:base+bit+run])
		}
	}
	return re, im
}

// sumXRun adds one run of ⟨z|X_q|z⊕bit⟩ terms, both orders, onto
// (re, im): s0/t0 are the two states' amplitudes with bit q clear,
// s1/t1 their partners with it set — four equal-length slices. Each
// term pair is conj(a)·b + conj(c)·d with a, c one state's amplitudes
// at z and z⊕bit and b, d the other's at z⊕bit and z.
func sumXRun(re, im float64, s0, s1, t0, t1 []complex128) (float64, float64) {
	s1, t0, t1 = s1[:len(s0)], t0[:len(s0)], t1[:len(s0)]
	for k, a := range s0 {
		b, c, d := t1[k], s1[k], t0[k]
		re += real(a)*real(b) + imag(a)*imag(b) + real(c)*real(d) + imag(c)*imag(d)
		im += real(a)*imag(b) - imag(a)*real(b) + real(c)*imag(d) - imag(c)*real(d)
	}
	return re, im
}
