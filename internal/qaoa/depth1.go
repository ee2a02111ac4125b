package qaoa

import "math"

// Depth 1 in closed form. A p = 1 QAOA state on an Ising Hamiltonian
// never needs its 2^n amplitudes: conjugating Z_i (or Z_i·Z_j) back
// through one mixer and one phase layer leaves a sum of Pauli strings
// whose |+⟩ expectations are products of cosines over the couplings
// that touch i (and j) — the single-layer analysis Crooks (1811.08419)
// builds on, worked out for fields and couplings by Ozaeta, van Dam and
// McMahon (2012.03421). Level 1 of the paper's two-level flow, datagen's
// depth-1 records and every depth-1 solve are therefore answered in
// O(|E|·n) flops instead of O(2^n).
//
// Conventions (those of ising.go and workspace.go): the score QAOA
// maximizes is Score = sense·Value = c₀ + Σ h′_i s_i + Σ J′_ij s_i s_j
// with h′ = sense·h, J′ = sense·J, c₀ = sense·Offset; the phase layer
// is e^{+iγ·gen}, gen = −(Score − c₀), and the mixer e^{−iβΣX}. Then
//
//	⟨Z_i⟩    = sin2β · sin(2γh′_i) · Π_{k≠i} cos(2γJ′_ik)
//	⟨Z_iZ_j⟩ = ½ sin4β · sin(2γJ′_ij) · [ cos(2γh′_i) Π_{k≠i,j} cos(2γJ′_ik)
//	                                    + cos(2γh′_j) Π_{k≠i,j} cos(2γJ′_jk) ]
//	         − ½ sin²2β · [ cos(2γ(h′_i+h′_j)) Π_{k≠i,j} cos(2γ(J′_ik+J′_jk))
//	                      − cos(2γ(h′_i−h′_j)) Π_{k≠i,j} cos(2γ(J′_ik−J′_jk)) ]
//	⟨Score⟩  = c₀ + Σ h′_i ⟨Z_i⟩ + Σ J′_ij ⟨Z_iZ_j⟩.
//
// One math.Sincos per coupling and per non-zero field fills the
// cos/sin tables for a call; cos(a ± b) comes from those tables by
// products, and ∂/∂γ is carried through every product in forward mode
// (P ← P·t, dP ← dP·t + P·dt), so the gradient is exact and never
// divides by a cosine that may vanish. ∂/∂β differentiates the three
// β prefactors.
//
// The engine is serial and its summation order is fixed by the
// instance, so results do not depend on GOMAXPROCS.
//
// What stays on the state vector, and why: depths ≥ 2 (no closed form
// of useful size), BestSampled (a readout needs the amplitudes, so a
// depth-1 Evaluator builds its workspace on first readout), and
// EvalWorkspace, Problem.Expectation and Problem.State at every depth —
// they are the oracle depth1_test.go holds this file to (the value to
// 1e-12 of |Offset| + Σ|h| + Σ|J|, the gradient to 1e-11 of that times
// the largest coefficient).

// depth1 is the closed-form p = 1 engine of one Evaluator. The
// couplings are immutable; the tables are per-call scratch, so a
// depth1 is not safe for concurrent use.
type depth1 struct {
	n      int
	offset float64   // c₀ = sense·Offset
	h      []float64 // h′
	j      []float64 // dense symmetric n×n J′ (duplicate terms summed), zero diagonal
	pairs  [][2]int  // i < j of every coupling present, in first-occurrence order

	// cos/sin(2γh′_i) and dense cos/sin(2γJ′_ik). Entries without a
	// field or coupling hold (1, 0) for good.
	ch, sh []float64
	cj, sj []float64
}

// newDepth1 lays the problem's Hamiltonian out in the dense form the
// closed form walks.
func newDepth1(pb *Problem) *depth1 {
	in := pb.Inst
	n := in.N
	sign := in.Sense.Sign()
	d := &depth1{
		n:      n,
		offset: sign * in.Offset,
		h:      make([]float64, n),
		j:      make([]float64, n*n),
		ch:     make([]float64, n),
		sh:     make([]float64, n),
		cj:     make([]float64, n*n),
		sj:     make([]float64, n*n),
	}
	for i, h := range in.Linear {
		d.h[i] = sign * h
	}
	seen := make([]bool, n*n)
	for _, t := range in.Quad {
		d.j[t.I*n+t.J] += sign * t.W
		d.j[t.J*n+t.I] = d.j[t.I*n+t.J]
		if !seen[t.I*n+t.J] {
			seen[t.I*n+t.J] = true
			d.pairs = append(d.pairs, [2]int{t.I, t.J})
		}
	}
	for i := range d.ch {
		d.ch[i] = 1
	}
	for i := range d.cj {
		d.cj[i] = 1
	}
	return d
}

// eval returns ⟨Score⟩ at (γ, β) with its exact partial derivatives.
// Non-finite angles give NaN. No heap allocation.
func (d *depth1) eval(gamma, beta float64) (e, dGamma, dBeta float64) {
	n := d.n
	g2 := 2 * gamma
	for i, h := range d.h {
		if h != 0 {
			d.sh[i], d.ch[i] = math.Sincos(g2 * h)
		}
	}
	for _, p := range d.pairs {
		a, b := p[0]*n+p[1], p[1]*n+p[0]
		s, c := math.Sincos(g2 * d.j[a])
		d.sj[a], d.cj[a] = s, c
		d.sj[b], d.cj[b] = s, c
	}

	// a = Σ h′_i·sin(2γh′_i)·Π_k cos(2γJ′_ik), the sin2β coefficient.
	// The diagonal holds cos = 1, so the product may run over the row.
	var a, da float64
	for i, h := range d.h {
		if h == 0 {
			continue
		}
		row := i * n
		p, dp := 1.0, 0.0
		for k := 0; k < n; k++ {
			c := d.cj[row+k]
			dp = dp*c - p*2*d.j[row+k]*d.sj[row+k]
			p *= c
		}
		a += h * d.sh[i] * p
		da += h * (2*h*d.ch[i]*p + d.sh[i]*dp)
	}

	// b and c: the ½sin4β and −½sin²2β coefficients, Σ J′_ij·(…).
	var b, db, c, dc float64
	for _, pr := range d.pairs {
		i, j := pr[0], pr[1]
		ri, rj := i*n, j*n
		w := d.j[ri+j]
		if w == 0 {
			continue
		}
		// Four products over k ≠ i, j, each with its γ-derivative:
		// cos(2γJ′_ik), cos(2γJ′_jk), cos(2γ(J′_ik ± J′_jk)).
		pi, dpi := 1.0, 0.0
		pj, dpj := 1.0, 0.0
		pp, dpp := 1.0, 0.0
		pm, dpm := 1.0, 0.0
		for k := 0; k < n; k++ {
			if k == i || k == j {
				continue
			}
			ji, jj := d.j[ri+k], d.j[rj+k]
			ci, si := d.cj[ri+k], d.sj[ri+k]
			cjk, sjk := d.cj[rj+k], d.sj[rj+k]
			cc, ss := ci*cjk, si*sjk
			sc, cs := si*cjk, ci*sjk
			tp, tm := cc-ss, cc+ss
			dpi = dpi*ci - pi*2*ji*si
			pi *= ci
			dpj = dpj*cjk - pj*2*jj*sjk
			pj *= cjk
			dpp = dpp*tp - pp*2*(ji+jj)*(sc+cs)
			pp *= tp
			dpm = dpm*tm - pm*2*(ji-jj)*(sc-cs)
			pm *= tm
		}
		hi, hj := d.h[i], d.h[j]
		chi, shi := d.ch[i], d.sh[i]
		chj, shj := d.ch[j], d.sh[j]
		sij, cij := d.sj[ri+j], d.cj[ri+j]

		u := chi*pi + chj*pj
		du := chi*dpi - 2*hi*shi*pi + chj*dpj - 2*hj*shj*pj
		b += w * sij * u
		db += w * (2*w*cij*u + sij*du)

		hp, hm := chi*chj-shi*shj, chi*chj+shi*shj // cos(2γ(h′_i ± h′_j))
		dhp := -2 * (hi + hj) * (shi*chj + chi*shj)
		dhm := -2 * (hi - hj) * (shi*chj - chi*shj)
		c += w * (hp*pp - hm*pm)
		dc += w * (dhp*pp + hp*dpp - dhm*pm - hm*dpm)
	}

	s2, c2 := math.Sincos(2 * beta)
	s4, c4 := 2*s2*c2, (c2-s2)*(c2+s2)
	e = d.offset + s2*a + 0.5*s4*b - 0.5*s2*s2*c
	dGamma = s2*da + 0.5*s4*db - 0.5*s2*s2*dc
	dBeta = 2*c2*a + 2*c4*b - s4*c
	return e, dGamma, dBeta
}
