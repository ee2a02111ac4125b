package problem

import (
	"fmt"
	"math/rand"

	"qaoaml/internal/graph"
)

// Deterministic seeded generators, one per family: the datagen
// ensembles of the cross-family training sets, and the instance
// sources of the benchmark's cold mixes. Each generator
// consumes the rng in a fixed order, so (family, size, seed) pins the
// instance exactly.

// RandomMaxKSAT draws a weighted Max-k-SAT formula: clauses of k
// distinct variables with random polarities and integer weights 1..3.
func RandomMaxKSAT(vars, clauses, k int, rng *rand.Rand) *Formula {
	if k < 1 || k > 3 {
		panic(fmt.Sprintf("problem: RandomMaxKSAT k = %d out of [1,3]", k))
	}
	if vars < k {
		panic(fmt.Sprintf("problem: RandomMaxKSAT needs at least %d variables, got %d", k, vars))
	}
	f := &Formula{Vars: vars, Weights: make([]float64, clauses)}
	for c := 0; c < clauses; c++ {
		perm := rng.Perm(vars)[:k]
		cl := make(Clause, k)
		for i, v := range perm {
			l := v + 1
			if rng.Intn(2) == 1 {
				l = -l
			}
			cl[i] = l
		}
		f.Clauses = append(f.Clauses, cl)
		f.Weights[c] = float64(1 + rng.Intn(3))
	}
	return f
}

// RandomPartition draws n positive integers in [1, 50].
func RandomPartition(n int, rng *rand.Rand) []float64 {
	nums := make([]float64, n)
	for i := range nums {
		nums[i] = float64(1 + rng.Intn(50))
	}
	return nums
}

// RandomPortfolio draws an n-asset instance: returns in (0, 1), a
// diagonally dominant symmetric covariance, budget n/2.
func RandomPortfolio(n int, rng *rand.Rand) *PortfolioSpec {
	p := &PortfolioSpec{
		Returns:      make([]float64, n),
		Covariance:   make([][]float64, n),
		RiskAversion: 0.5,
		Budget:       n / 2,
	}
	if p.Budget < 1 {
		p.Budget = 1
	}
	for i := range p.Returns {
		p.Returns[i] = 0.01 + 0.99*rng.Float64()
		p.Covariance[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := 0.2 * (rng.Float64() - 0.5)
			p.Covariance[i][j], p.Covariance[j][i] = c, c
		}
	}
	for i := 0; i < n; i++ {
		row := 0.0
		for j, v := range p.Covariance[i] {
			if j != i {
				if v < 0 {
					row -= v
				} else {
					row += v
				}
			}
		}
		p.Covariance[i][i] = row + 0.1 + 0.9*rng.Float64()
	}
	return p
}

// RandomIsing draws a ±J spin glass on a random 3-regular coupling
// graph (4-regular when 3n is odd) with fields h ∈ {−1, 0, +1}:
// integer coefficients, so the exact streaming path and γ-periodic
// canonicalization apply.
func RandomIsing(n int, rng *rand.Rand) *Instance {
	if n < 4 {
		panic(fmt.Sprintf("problem: RandomIsing needs at least 4 spins, got %d", n))
	}
	deg := 3
	if n*deg%2 != 0 {
		deg = 4
	}
	g := graph.RandomRegular(n, deg, rng)
	in := &Instance{
		Family: FamilyQUBO,
		Sense:  Minimize,
		N:      n,
		Vars:   n,
		Linear: make([]float64, n),
	}
	for _, e := range g.Edges() {
		w := 1.0
		if rng.Intn(2) == 1 {
			w = -1
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		in.Quad = append(in.Quad, Term{I: u, J: v, W: w})
	}
	for i := range in.Linear {
		in.Linear[i] = float64(rng.Intn(3) - 1)
	}
	return in
}

// RandomColoring draws a connected Erdős–Rényi graph with edge
// probability p and wraps it as a k-coloring spec (n·colors qubits).
func RandomColoring(n, colors int, p float64, rng *rand.Rand) Spec {
	return Coloring(graph.ErdosRenyiConnected(n, p, rng), colors)
}

// RandomSpec draws one instance of the family sized to roughly qubits
// total qubits — the dispatcher datagen uses to build per-family
// ensembles with one knob.
func RandomSpec(family string, qubits int, rng *rand.Rand) (Spec, error) {
	if qubits < 4 {
		return Spec{}, fmt.Errorf("problem: RandomSpec needs at least 4 qubits, got %d", qubits)
	}
	switch family {
	case FamilyMaxCut:
		return MaxCut(graph.ErdosRenyiConnected(qubits, 0.5, rng)), nil
	case FamilyQUBO:
		return FromInstance(RandomIsing(qubits, rng)), nil
	case FamilyMaxKSAT:
		// k = 2 keeps the register at exactly `qubits` (no auxiliaries).
		return MaxKSAT(RandomMaxKSAT(qubits, 3*qubits, 2, rng)), nil
	case FamilyPartition:
		return Partition(RandomPartition(qubits, rng)), nil
	case FamilyPortfolio:
		return Portfolio(RandomPortfolio(qubits, rng)), nil
	case FamilyColoring:
		colors := 3
		verts := qubits / colors
		if verts < 2 {
			colors, verts = 2, qubits/2
		}
		return RandomColoring(verts, colors, 0.5, rng), nil
	}
	return Spec{}, fmt.Errorf("problem: unknown family %q (want one of %v)", family, Families())
}
