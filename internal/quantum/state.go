// Package quantum implements the exact dense state-vector simulator the
// reproduction uses in place of QuTiP. A State holds the 2^n complex
// amplitudes of an n-qubit register; qubit 0 is the least-significant
// bit of the basis-state index. The QAOA engine runs the fused kernels
// (fused.go, adjoint.go, reverse.go, mirror.go) on a State.
// The gates — H, RX, RZ, CNOT and the generic Apply1Q — act one at a
// time, in place; with the reductions Norm, InnerProduct and
// InnerProductSumX they build the reference those kernels are tested
// against: plain serial loops, free of the worker pool and the chunk
// geometry the kernels run on.
//
// The simulator is exact (no noise model): the paper's evaluation runs
// on a noiseless QuTiP simulation, so the optimization landscapes seen
// by the classical optimizers here are identical in kind.
package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync/atomic"
)

// MaxQubits bounds state allocation (2^30 amplitudes = 16 GiB). The
// practical ceiling for evaluations is n = 26–28 evolved qubits,
// depending on how many state buffers the caller holds (a gradient
// workspace holds two).
const MaxQubits = 30

// State is the dense state vector of an n-qubit register.
type State struct {
	n    int
	amps []complex128
}

// ampBytes tracks cumulative amplitude-array allocation across the
// process, so benchmarks can report the high-water state memory of a
// workspace (states are held for the workspace lifetime, so the delta
// across setup is the live footprint).
var ampBytes atomic.Int64

// AmpBytesAllocated returns the cumulative bytes of amplitude storage
// allocated since process start by NewState and Clone.
func AmpBytesAllocated() int64 { return ampBytes.Load() }

// NewState returns the n-qubit computational basis state |0...0⟩.
func NewState(n int) *State {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("quantum: qubit count %d out of [1,%d]", n, MaxQubits))
	}
	s := &State{n: n, amps: make([]complex128, 1<<uint(n))}
	ampBytes.Add(int64(16) << uint(n))
	s.amps[0] = 1
	return s
}

// NumQubits returns the register width.
func (s *State) NumQubits() int { return s.n }

// Dim returns the Hilbert-space dimension 2^n.
func (s *State) Dim() int { return len(s.amps) }

// Amplitude returns the amplitude of basis state |index⟩.
func (s *State) Amplitude(index uint64) complex128 { return s.amps[index] }

// Clone returns a deep copy of s.
func (s *State) Clone() *State {
	c := &State{n: s.n, amps: make([]complex128, len(s.amps))}
	ampBytes.Add(int64(16 * len(s.amps)))
	copy(c.amps, s.amps)
	return c
}

// Norm returns the 2-norm of the state vector (1 for a valid state).
func (s *State) Norm() float64 { return math.Sqrt(normSqPartial(s.amps)) }

// normSqPartial returns Σ|a|² over one contiguous amplitude range.
func normSqPartial(amps []complex128) float64 {
	t := 0.0
	for _, a := range amps {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return t
}

// Normalize rescales the state to unit norm. It panics on a zero vector.
func (s *State) Normalize() {
	n := s.Norm()
	if n == 0 {
		panic("quantum: cannot normalize zero state")
	}
	inv := complex(1/n, 0)
	for i := range s.amps {
		s.amps[i] *= inv
	}
}

// Probability returns |⟨index|ψ⟩|².
func (s *State) Probability(index uint64) float64 {
	a := s.amps[index]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Probabilities returns the full measurement distribution over the
// computational basis.
func (s *State) Probabilities() []float64 {
	p := make([]float64, len(s.amps))
	for i, a := range s.amps {
		p[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

// InnerProduct returns ⟨s|t⟩. It panics if widths differ.
func (s *State) InnerProduct(t *State) complex128 {
	if s.n != t.n {
		panic("quantum: qubit count mismatch in InnerProduct")
	}
	var re, im float64
	for i, a := range s.amps {
		b := t.amps[i]
		re += real(a)*real(b) + imag(a)*imag(b)
		im += real(a)*imag(b) - imag(a)*real(b)
	}
	return complex(re, im)
}

// ExpectationDiagonal returns ⟨ψ|D|ψ⟩ for a diagonal observable D given
// by its diagonal in the computational basis. This is how the QAOA
// MaxCut cost Hamiltonian is evaluated. It panics on a length mismatch.
func (s *State) ExpectationDiagonal(diag []float64) float64 {
	if len(diag) != len(s.amps) {
		panic(fmt.Sprintf("quantum: diagonal length %d != dim %d", len(diag), len(s.amps)))
	}
	if reduceChunkCount(len(s.amps)) == 1 {
		return s.ExpectationDiagonalRange(0, diag)
	}
	e, _ := ReduceChunks(len(s.amps), func(lo, hi int) (float64, float64) {
		return s.ExpectationDiagonalRange(lo, diag[lo:hi]), 0
	})
	return e
}

// ExpectationDiagonalRange returns the partial sum Σ |amp[lo+i]|²·diag[i]
// over the range [lo, lo+len(diag)) — one chunk's contribution to
// ExpectationDiagonal. Streaming cost kernels call it with a diagonal
// slice they fill per chunk, inside ReduceChunks, so the combined value
// is bit-identical to the materialized-table path.
func (s *State) ExpectationDiagonalRange(lo int, diag []float64) float64 {
	s.checkRange(lo, len(diag))
	amps := s.amps[lo : lo+len(diag)]
	e := 0.0
	for i, d := range diag {
		a := amps[i]
		e += (real(a)*real(a) + imag(a)*imag(a)) * d
	}
	return e
}

// ArgmaxProbability returns the basis state with the largest |amp|² and
// that probability, scanning in ascending index order (first maximum
// wins). It replaces Probabilities()-then-scan readouts, which allocate
// a 2^n table.
func (s *State) ArgmaxProbability() (uint64, float64) {
	best := -1.0
	var arg uint64
	for i, a := range s.amps {
		if p := real(a)*real(a) + imag(a)*imag(a); p > best {
			best = p
			arg = uint64(i)
		}
	}
	return arg, best
}

// checkRange panics unless [lo, lo+length) lies within the amplitude
// array.
func (s *State) checkRange(lo, length int) {
	if lo < 0 || length < 0 || lo+length > len(s.amps) {
		panic(fmt.Sprintf("quantum: range [%d,%d) out of dim %d", lo, lo+length, len(s.amps)))
	}
}

// --- single-qubit gates ---

// Apply1Q applies the 2×2 unitary [[u00,u01],[u10,u11]] to qubit q,
// pair by pair in ascending index order.
func (s *State) Apply1Q(q int, u00, u01, u10, u11 complex128) {
	s.checkQubit(q)
	bit := 1 << uint(q)
	for base := 0; base < len(s.amps); base += bit << 1 {
		for i := base; i < base+bit; i++ {
			j := i | bit
			a, b := s.amps[i], s.amps[j]
			s.amps[i] = u00*a + u01*b
			s.amps[j] = u10*a + u11*b
		}
	}
}

// H applies the Hadamard gate to qubit q.
func (s *State) H(q int) {
	h := complex(1/math.Sqrt2, 0)
	s.Apply1Q(q, h, h, h, -h)
}

// RX applies RX(θ) = exp(-iθX/2) to qubit q.
func (s *State) RX(q int, theta float64) {
	c := complex(math.Cos(theta/2), 0)
	ms := complex(0, -math.Sin(theta/2))
	s.Apply1Q(q, c, ms, ms, c)
}

// RZ applies RZ(θ) = exp(-iθZ/2) = diag(e^{-iθ/2}, e^{iθ/2}) to qubit q.
func (s *State) RZ(q int, theta float64) {
	s.checkQubit(q)
	sin, cos := math.Sincos(theta / 2)
	p0 := complex(cos, -sin)
	p1 := complex(cos, sin)
	bit := 1 << uint(q)
	for i := range s.amps {
		if i&bit == 0 {
			s.amps[i] *= p0
		} else {
			s.amps[i] *= p1
		}
	}
}

// --- two-qubit gates ---

// CNOT applies a controlled-X with the given control and target qubits.
func (s *State) CNOT(control, target int) {
	s.checkQubit(control)
	s.checkQubit(target)
	if control == target {
		panic("quantum: CNOT control == target")
	}
	cbit := 1 << uint(control)
	tbit := 1 << uint(target)
	for i := range s.amps {
		if i&cbit != 0 && i&tbit == 0 {
			j := i | tbit
			s.amps[i], s.amps[j] = s.amps[j], s.amps[i]
		}
	}
}

// ApplyDiagonalPhase multiplies amplitude z by e^{i·phases[z]}.
// It panics on a length mismatch.
func (s *State) ApplyDiagonalPhase(phases []float64) {
	if len(phases) != len(s.amps) {
		panic("quantum: phase table length mismatch")
	}
	applyPhaseRange(s.amps, phases)
}

// Equal reports whether the two states agree amplitude-wise within tol
// (including global phase).
func (s *State) Equal(t *State, tol float64) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.amps {
		if cmplx.Abs(s.amps[i]-t.amps[i]) > tol {
			return false
		}
	}
	return true
}

func (s *State) checkQubit(q int) {
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("quantum: qubit %d out of range [0,%d)", q, s.n))
	}
}
