// Package problem defines the general Ising/QUBO instance type behind
// every QAOA objective in this repository, plus compilers from classic
// combinatorial scenarios (MaxCut, weighted Max-k-SAT, number
// partitioning, portfolio selection, graph coloring) onto it.
//
// An Instance is a diagonal Hamiltonian over spin variables
// s_i = 1 − 2·bit_i(z) ∈ {+1, −1}:
//
//	Value(z) = Offset + Σ_i h_i·s_i + Σ_{i<j} J_ij·s_i·s_j
//
// together with an optimization Sense. QAOA always *maximizes* the
// direction-normalized Score(z) = sense·Value(z) (sense = +1 for
// Maximize, −1 for Minimize), so every downstream consumer — the qaoa
// kernels, approximation ratios, best-sampled readouts — handles the
// min/max direction in exactly one place.
//
// QUBO objectives over binary variables x_i = bit_i(z) ∈ {0, 1} convert
// exactly via x_i = (1 − s_i)/2 (see QUBO.ToIsing).
package problem

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Sense is the optimization direction of an instance's Value.
type Sense int

// The two optimization directions. The numeric values are the score
// signs: Score(z) = int(Sense)·Value(z).
const (
	Maximize Sense = 1
	Minimize Sense = -1
)

// String returns "max" or "min" (the wire encoding used by qaoad).
func (s Sense) String() string {
	if s == Minimize {
		return "min"
	}
	return "max"
}

// Sign returns the score sign: +1 for Maximize, −1 for Minimize.
func (s Sense) Sign() float64 { return float64(s) }

// ParseSense decodes the wire encoding ("max"/"min", "" = max).
func ParseSense(s string) (Sense, error) {
	switch s {
	case "", "max", "maximize":
		return Maximize, nil
	case "min", "minimize":
		return Minimize, nil
	}
	return 0, fmt.Errorf("problem: unknown sense %q (want \"min\" or \"max\")", s)
}

// Term is one quadratic coupling J·s_i·s_j with i < j.
type Term struct {
	I, J int
	W    float64
}

// Canonical family names. Spec constructors and the qaoad wire schema
// use exactly these strings.
const (
	FamilyMaxCut    = "maxcut"
	FamilyQUBO      = "qubo"
	FamilyMaxKSAT   = "maxksat"
	FamilyPartition = "partition"
	FamilyPortfolio = "portfolio"
	FamilyColoring  = "coloring"
)

// Families lists every supported problem family in wire order.
func Families() []string {
	return []string{FamilyMaxCut, FamilyQUBO, FamilyMaxKSAT, FamilyPartition, FamilyPortfolio, FamilyColoring}
}

// BruteForceMaxQubits bounds the exhaustive ground-state scan, matching
// graph.WeightedMaxCut's limit.
const BruteForceMaxQubits = 30

// Instance is a compiled diagonal Hamiltonian: the universal problem
// representation every QAOA kernel evaluates.
type Instance struct {
	Family string // originating family (one of the Family* constants)
	Sense  Sense  // optimization direction of Value
	N      int    // total qubits, including auxiliary variables
	Vars   int    // leading decision variables; bits Vars..N-1 are auxiliary
	Linear []float64
	Quad   []Term
	Offset float64
}

// Validate checks structural invariants: qubit counts, finite
// coefficients whose magnitudes also sum to a finite number (every
// Value(z) is a signed sum of them, so that bounds them all), index
// ranges, i < j term normalization, and that at least one coupling or
// field is non-zero (a constant Hamiltonian has nothing to optimize).
func (in *Instance) Validate() error {
	if in.N < 1 {
		return fmt.Errorf("problem: instance has %d qubits", in.N)
	}
	if in.Vars < 1 || in.Vars > in.N {
		return fmt.Errorf("problem: %d decision variables out of [1, %d]", in.Vars, in.N)
	}
	if in.Sense != Maximize && in.Sense != Minimize {
		return fmt.Errorf("problem: invalid sense %d", in.Sense)
	}
	if math.IsNaN(in.Offset) || math.IsInf(in.Offset, 0) {
		return fmt.Errorf("problem: non-finite offset %v", in.Offset)
	}
	if in.Linear != nil && len(in.Linear) != in.N {
		return fmt.Errorf("problem: %d linear terms for %d qubits", len(in.Linear), in.N)
	}
	nonzero := false
	mag := math.Abs(in.Offset)
	for i, h := range in.Linear {
		if math.IsNaN(h) || math.IsInf(h, 0) {
			return fmt.Errorf("problem: non-finite linear term h[%d] = %v", i, h)
		}
		if h != 0 {
			nonzero = true
		}
		mag += math.Abs(h)
	}
	for k, t := range in.Quad {
		if t.I < 0 || t.J >= in.N || t.I >= t.J {
			return fmt.Errorf("problem: quadratic term %d (%d,%d) not normalized to 0 <= i < j < %d", k, t.I, t.J, in.N)
		}
		if math.IsNaN(t.W) || math.IsInf(t.W, 0) {
			return fmt.Errorf("problem: non-finite coupling J[%d,%d] = %v", t.I, t.J, t.W)
		}
		if t.W != 0 {
			nonzero = true
		}
		mag += math.Abs(t.W)
	}
	if math.IsInf(mag, 0) {
		return fmt.Errorf("problem: coefficients overflow: |offset| + Σ|h| + Σ|J| is not finite")
	}
	if !nonzero {
		return fmt.Errorf("problem: constant Hamiltonian (all couplings and fields zero) has nothing to optimize")
	}
	return nil
}

// Value evaluates the classical objective at assignment z (bit i of z
// is binary variable x_i; spin s_i = 1 − 2·x_i).
func (in *Instance) Value(z uint64) float64 {
	v := in.Offset
	for i, h := range in.Linear {
		if h == 0 {
			continue
		}
		if (z>>uint(i))&1 == 0 {
			v += h
		} else {
			v -= h
		}
	}
	for _, t := range in.Quad {
		if (z>>uint(t.I))&1 == (z>>uint(t.J))&1 {
			v += t.W
		} else {
			v -= t.W
		}
	}
	return v
}

// Score is the direction-normalized objective sense·Value: QAOA and
// every report maximize Score, whatever the family's native direction.
func (in *Instance) Score(z uint64) float64 { return in.Sense.Sign() * in.Value(z) }

// IntegerCoeffs reports whether 2·h_i and 2·J_ij are all integral (and
// small enough for exact int64 accumulation). That is the condition for
// the exact streaming path and for the γ mod 2π canonicalization: the
// phase-generator differences between basis states are then integers.
func (in *Instance) IntegerCoeffs() bool {
	const lim = 1 << 40
	ok := func(c float64) bool {
		d := 2 * c
		return d == math.Trunc(d) && math.Abs(d) < lim
	}
	for _, h := range in.Linear {
		if !ok(h) {
			return false
		}
	}
	for _, t := range in.Quad {
		if !ok(t.W) {
			return false
		}
	}
	return true
}

// FieldFree reports whether no linear term is nonzero. Value(z) then
// equals Value(^z) — the X⊗n symmetry behind BruteForce's half walk,
// the β mod π/2 canonical fold and the qaoa half-register evolution. It
// is an exact test: a field of any size, however small, breaks the
// symmetry.
func (in *Instance) FieldFree() bool {
	for _, h := range in.Linear {
		if h != 0 {
			return false
		}
	}
	return true
}

// BruteForce scans all 2^N assignments with gray-code incremental
// updates (O(degree) work per step) and returns the optimal Value per
// the instance's Sense, the worst Value (the opposite extreme, needed
// for normalized scores), and an assignment achieving the optimum. A
// FieldFree instance stops the walk after the half with the top spin
// up and loses neither extreme.
func (in *Instance) BruteForce() (opt, worst float64, argOpt uint64) {
	if in.N > BruteForceMaxQubits {
		panic(fmt.Sprintf("problem: brute force over %d qubits exceeds the %d-qubit limit", in.N, BruteForceMaxQubits))
	}
	// CSR adjacency over quadratic terms for O(deg) flip deltas.
	deg := make([]int32, in.N+1)
	for _, t := range in.Quad {
		deg[t.I+1]++
		deg[t.J+1]++
	}
	for i := 1; i <= in.N; i++ {
		deg[i] += deg[i-1]
	}
	adjV := make([]int32, deg[in.N])
	adjW := make([]float64, deg[in.N])
	fill := append([]int32(nil), deg[:in.N]...)
	for _, t := range in.Quad {
		adjV[fill[t.I]], adjW[fill[t.I]] = int32(t.J), t.W
		fill[t.I]++
		adjV[fill[t.J]], adjW[fill[t.J]] = int32(t.I), t.W
		fill[t.J]++
	}

	s := make([]float64, in.N) // spins of the current gray-code state
	v := in.Offset
	steps := uint64(1) << uint(in.N)
	if in.FieldFree() {
		steps >>= 1
	}
	for i := range s {
		s[i] = 1
		if in.Linear != nil {
			v += in.Linear[i]
		}
	}
	for _, t := range in.Quad {
		v += t.W
	}

	sign := in.Sense.Sign()
	opt, worst = v, v
	var cur, arg uint64 // cur is the gray code of step k
	for k := uint64(1); k < steps; k++ {
		b := bits.TrailingZeros64(k)
		// Flipping spin b changes the value by −2·s_b·(h_b + Σ_j J_bj·s_j).
		local := 0.0
		if in.Linear != nil {
			local = in.Linear[b]
		}
		for e := deg[b]; e < deg[b+1]; e++ {
			local += adjW[e] * s[adjV[e]]
		}
		v -= 2 * s[b] * local
		s[b] = -s[b]
		cur ^= 1 << uint(b)
		if sign*(v-opt) > 0 {
			opt, arg = v, cur
		}
		if sign*(v-worst) < 0 {
			worst = v
		}
	}
	return opt, worst, arg
}

// Fingerprint returns a deterministic canonical hash of the full
// instance — family, sense, sizes, offset, every linear term and every
// coupling — in the style of graph.Fingerprint. Two instances share a
// fingerprint iff they define the same objective over the same indexed
// variables, so the qaoad exact cache never aliases distinct instances
// that happen to share a coupling graph.
func (in *Instance) Fingerprint() string {
	terms := slices.Clone(in.Quad)
	slices.SortFunc(terms, func(a, b Term) int {
		if a.I != b.I {
			return cmp.Compare(a.I, b.I)
		}
		return cmp.Compare(a.J, b.J)
	})
	// The hashed bytes, in order: family, (sense, N, Vars), (offset,
	// len(Linear), len(Quad)), every field, every sorted (i, j, w) — laid
	// out in one buffer and hashed in one call.
	le := binary.LittleEndian
	buf := make([]byte, 0, len(in.Family)+48+8*len(in.Linear)+24*len(terms))
	buf = append(buf, in.Family...)
	buf = le.AppendUint64(buf, uint64(int64(in.Sense)))
	buf = le.AppendUint64(buf, uint64(in.N))
	buf = le.AppendUint64(buf, uint64(in.Vars))
	buf = le.AppendUint64(buf, math.Float64bits(in.Offset))
	buf = le.AppendUint64(buf, uint64(len(in.Linear)))
	buf = le.AppendUint64(buf, uint64(len(terms)))
	for _, v := range in.Linear {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	for _, t := range terms {
		buf = le.AppendUint64(buf, uint64(t.I))
		buf = le.AppendUint64(buf, uint64(t.J))
		buf = le.AppendUint64(buf, math.Float64bits(t.W))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
