package qaoa

import "math"

// The QAOA landscape of a compiled instance has exact symmetries that
// leave ⟨C⟩ invariant, read off the instance alone:
//
//  1. βi → βi ± π for any single stage: RX(2β) is π-periodic up to a
//     global phase. Without a field the period is π/2: the stage then
//     picks up X⊗n, and a field-free cost is invariant under
//     complementing every spin, so X⊗n commutes with every later layer
//     and with the observable.
//  2. (γ⃗, β⃗) → (−γ⃗, −β⃗), complex conjugation of the state (C is a real
//     diagonal observable).
//  3. When every doubled coefficient 2h_i, 2J_ij is an integer, the
//     phase separator is 2π-periodic in γ, and
//
//     exp(iπ·gen) = phase · Z_S,
//
//     where S holds the spins touched by an odd number of terms whose
//     doubled coefficient is odd. For S = ∅, γi → γi + π is a symmetry on
//     its own. For S = every spin, pushing Z⊗n through the later mixers
//     flips them: γi → γi + π with βj → −βj for all j ≥ i. Any other S
//     anticommutes with part of the mixer and gives no symmetry. For a
//     MaxCut graph S is the set of vertices of odd weighted degree.
//
// Optimizers return one of many equivalent optima. For the paper's
// parameter-trend analysis and ML features to be consistent across
// graphs and runs, every optimum is mapped into one fundamental domain.

// BetaPeriod is the field-free mixer-angle period π/2 (symmetry 1).
const BetaPeriod = math.Pi / 2

// mod returns x modulo m in [0, m). A tiny negative x whose r + m
// rounds to m maps to 0, so a folded angle never lands on the period.
func mod(x, m float64) float64 {
	r := math.Mod(x, m)
	if r < 0 {
		if r += m; r == m {
			r = 0
		}
	}
	return r
}

// Canonicalize maps pr into the instance's fundamental domain without
// changing the expectation value; pr is not modified. Every βi folds
// into [0, period): π/2 for a field-free instance, π otherwise. With
// integral doubled coefficients every γi also folds into [0, 2π) and
// the conjugation brings γ1 into [0, π]; when the parity set S is empty
// or every spin, every γi then folds into [0, π) and γ1 into [0, π/2].
// The paper's Fig. 2/3 graphs are 3-regular (S = every vertex), where
// this folding is what makes the per-stage patterns comparable across
// graphs.
func (pb *Problem) Canonicalize(pr Params) Params {
	in := pb.Inst
	period := math.Pi
	if in.FieldFree() {
		period = BetaPeriod
	}
	p := pr.Depth()
	out := NewParams(p)
	copy(out.Gamma, pr.Gamma)
	for i := range out.Beta {
		out.Beta[i] = mod(pr.Beta[i], period)
	}
	if p == 0 || !in.IntegerCoeffs() {
		return out
	}
	for i := range out.Gamma {
		out.Gamma[i] = mod(out.Gamma[i], GammaMax)
	}
	if out.Gamma[0] > math.Pi {
		conjugate(out, period)
	}

	// S as a bit mask; N ≤ BruteForceMaxQubits, so it fits.
	var s uint64
	odd := func(c float64) bool { return int64(2*c)&1 == 1 }
	for i, h := range in.Linear {
		if odd(h) {
			s ^= 1 << i
		}
	}
	for _, t := range in.Quad {
		if odd(t.W) {
			s ^= 1<<t.I | 1<<t.J
		}
	}
	all := uint64(1)<<in.N - 1
	if s != 0 && s != all {
		return out
	}
	foldGammaModPi(out, period, s == all)
	if out.Gamma[0] > math.Pi/2 {
		conjugate(out, period)
		foldGammaModPi(out, period, s == all)
	}
	return out
}

// conjugate applies the joint sign fold (γ⃗, β⃗) → (−γ⃗, −β⃗) in place,
// γ mod 2π and β mod betaPeriod.
func conjugate(pr Params, betaPeriod float64) {
	for i := range pr.Gamma {
		pr.Gamma[i] = mod(-pr.Gamma[i], GammaMax)
		pr.Beta[i] = mod(-pr.Beta[i], betaPeriod)
	}
}

// foldGammaModPi reduces every γi from [0, 2π) into [0, π) in place;
// flip says a shift by π negates every mixer angle from that stage on
// (S = every spin).
func foldGammaModPi(pr Params, betaPeriod float64, flip bool) {
	for i := range pr.Gamma {
		if pr.Gamma[i] < math.Pi {
			continue
		}
		pr.Gamma[i] -= math.Pi
		for j := i; flip && j < len(pr.Beta); j++ {
			pr.Beta[j] = mod(-pr.Beta[j], betaPeriod)
		}
	}
}
