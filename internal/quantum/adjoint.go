package quantum

// This file holds the per-chunk kernels a QAOA cost kernel streams:
// the phase separator's multiplies (MulDiagonalIndexedRange, MulRange),
// the adjoint seed λ = C|ψ⟩ fused with the value readout
// (SeedDiagonalRange), and the reverse sweep's inner-product-and-unphase
// steps (InnerImMulIndexedRange, InnerImMulRange). Each acts on one chunk
// [lo, lo+len) the caller hands out (a fused layer's chunk or a
// reduction's), and the partial sums combine over the fixed chunk
// geometry of reduce.go: bit-identical at every GOMAXPROCS.
// InnerProductDiagonalRange and the serial InnerProductSumX are the
// unfused two-pass gradient reference the tests hold the fused sweep to.

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
	Mul(amps, amps, f)
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

// InnerImMulIndexedRange is one chunk of an adjoint reverse stage: it
// returns the chunk's contribution to Im⟨s|D|t⟩ for the real diagonal D
// with entries vals[idx[i]] — accumulated exactly like the imaginary
// half of InnerProductDiagonalRange, the half the gradient reads — and
// then multiplies both states' amplitudes by factors[idx[i]]. The fold
// is a read-only pass, bound by its adds' latency; the multiplies are
// mulIndexedRange's, which run in assembly where the CPU has AVX2. An
// index outside factors panics before anything is written.
func (s *State) InnerImMulIndexedRange(t *State, lo int, idx []int32, vals []float64, factors []complex128) (im float64) {
	s.checkRange(lo, len(idx))
	t.checkRange(lo, len(idx))
	sa, ta := s.amps[lo:lo+len(idx)], t.amps[lo:lo+len(idx)]
	vals = vals[:len(factors)]
	for i, k := range idx {
		a, b := sa[i], ta[i]
		im += (real(a)*imag(b) - imag(a)*real(b)) * vals[k]
	}
	mulIndexedRange(sa, idx, factors)
	mulIndexedRange(ta, idx, factors)
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
	}
	Mul(sa, sa, f)
	Mul(ta, ta, f)
	return im
}

// InnerProductSumX returns ⟨s| Σ_q X_q |t⟩, the matrix element of the
// transverse-field mixer generator: Σ_q Σ_z conj(s_z)·t_{z⊕2^q}. It
// panics if the register widths differ. The adjoint gradient reads its
// imaginary part inside the two-state mixer sweep instead (reverse.go);
// this serial, qubit-by-qubit, full-complex walk shares no code with
// that and is its oracle. Each pair (z, z⊕2^q) adds both of its terms
// at once, at its representative z (bit q clear), q in the outer loop
// and z ascending; adding every term singly at its own z rounds past the
// reverse sweep tests' 1e-12 bound at n = 12.
func (s *State) InnerProductSumX(t *State) complex128 {
	if s.n != t.n {
		panic("quantum: qubit count mismatch in InnerProductSumX")
	}
	sa, ta := s.amps, t.amps
	var re, im float64
	for q := 0; q < s.n; q++ {
		bit := 1 << uint(q)
		for base := 0; base < len(sa); base += bit << 1 {
			for z := base; z < base+bit; z++ {
				a, b, c, d := sa[z], ta[z|bit], sa[z|bit], ta[z]
				re += real(a)*real(b) + imag(a)*imag(b) + real(c)*real(d) + imag(c)*imag(d)
				im += real(a)*imag(b) - imag(a)*real(b) + real(c)*imag(d) - imag(c)*real(d)
			}
		}
	}
	return complex(re, im)
}
