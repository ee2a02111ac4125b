package quantum

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewStateIsZeroKet(t *testing.T) {
	s := NewState(3)
	if s.Dim() != 8 || s.NumQubits() != 3 {
		t.Fatalf("dim/qubits = %d/%d", s.Dim(), s.NumQubits())
	}
	if s.Amplitude(0) != 1 {
		t.Errorf("amp(0) = %v", s.Amplitude(0))
	}
	if math.Abs(s.Norm()-1) > 1e-15 {
		t.Errorf("norm = %v", s.Norm())
	}
}

func TestNewBasisState(t *testing.T) {
	s := NewBasisState(3, 5)
	if s.Probability(5) != 1 {
		t.Errorf("P(5) = %v", s.Probability(5))
	}
}

func TestXFlipsBit(t *testing.T) {
	s := NewState(2)
	s.X(0)
	if s.Probability(0b01) != 1 {
		t.Errorf("X(0)|00> != |01>: %v", s.Probabilities())
	}
	s.X(1)
	if s.Probability(0b11) != 1 {
		t.Errorf("X(1) failed: %v", s.Probabilities())
	}
}

func TestHadamardSuperposition(t *testing.T) {
	s := NewState(1)
	s.H(0)
	if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(1)-0.5) > 1e-12 {
		t.Errorf("H|0> probs = %v", s.Probabilities())
	}
	s.H(0) // H is an involution
	if math.Abs(s.Probability(0)-1) > 1e-12 {
		t.Errorf("H² != I: %v", s.Probabilities())
	}
}

func TestPauliAlgebra(t *testing.T) {
	// XYZ = iI on any state: check on H|0> for a nontrivial state.
	s := NewState(1)
	s.H(0)
	ref := s.Clone()
	s.Z(0)
	s.Y(0)
	s.X(0)
	// Expect i·ref.
	for i := uint64(0); i < 2; i++ {
		want := ref.Amplitude(i) * complex(0, 1)
		if cmplx.Abs(s.Amplitude(i)-want) > 1e-12 {
			t.Fatalf("XYZ != iI at %d: got %v want %v", i, s.Amplitude(i), want)
		}
	}
}

func TestBellState(t *testing.T) {
	s := NewState(2)
	s.H(0)
	s.CNOT(0, 1)
	if math.Abs(s.Probability(0b00)-0.5) > 1e-12 || math.Abs(s.Probability(0b11)-0.5) > 1e-12 {
		t.Errorf("Bell probs = %v", s.Probabilities())
	}
	if p := s.Probability(0b01) + s.Probability(0b10); p > 1e-12 {
		t.Errorf("Bell has odd-parity weight %v", p)
	}
}

func TestCNOTControlOff(t *testing.T) {
	s := NewState(2)
	s.CNOT(0, 1)
	if s.Probability(0) != 1 {
		t.Error("CNOT acted with control off")
	}
}

func TestRZPhases(t *testing.T) {
	s := NewState(1)
	s.X(0) // |1>
	s.RZ(0, math.Pi)
	want := cmplx.Exp(complex(0, math.Pi/2))
	if cmplx.Abs(s.Amplitude(1)-want) > 1e-12 {
		t.Errorf("RZ(π)|1> = %v, want %v", s.Amplitude(1), want)
	}
}

func TestRXRotation(t *testing.T) {
	s := NewState(1)
	s.RX(0, math.Pi) // = -iX up to phase
	if math.Abs(s.Probability(1)-1) > 1e-12 {
		t.Errorf("RX(π)|0> probs = %v", s.Probabilities())
	}
	s2 := NewState(1)
	s2.RX(0, math.Pi/2)
	if math.Abs(s2.Probability(0)-0.5) > 1e-12 {
		t.Errorf("RX(π/2) probs = %v", s2.Probabilities())
	}
}

func TestRYRotation(t *testing.T) {
	s := NewState(1)
	s.RY(0, math.Pi/2)
	// cos(π/4)|0> + sin(π/4)|1>, both real.
	if math.Abs(real(s.Amplitude(0))-1/math.Sqrt2) > 1e-12 ||
		math.Abs(real(s.Amplitude(1))-1/math.Sqrt2) > 1e-12 {
		t.Errorf("RY(π/2)|0> = %v, %v", s.Amplitude(0), s.Amplitude(1))
	}
}

func TestPhaseGate(t *testing.T) {
	s := NewState(1)
	s.H(0)
	s.Phase(0, math.Pi) // = Z on the |1> component
	z := NewState(1)
	z.H(0)
	z.Z(0)
	if !s.Equal(z, 1e-12) {
		t.Error("Phase(π) != Z")
	}
}

func TestCZAndSWAP(t *testing.T) {
	s := NewBasisState(2, 0b11)
	s.CZ(0, 1)
	if cmplx.Abs(s.Amplitude(0b11)+1) > 1e-12 {
		t.Errorf("CZ|11> = %v, want -1", s.Amplitude(0b11))
	}
	w := NewBasisState(2, 0b01)
	w.SWAP(0, 1)
	if w.Probability(0b10) != 1 {
		t.Errorf("SWAP failed: %v", w.Probabilities())
	}
	w.SWAP(1, 1) // no-op
	if w.Probability(0b10) != 1 {
		t.Error("SWAP(q,q) changed state")
	}
}

func TestZZEqualsGateDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		theta := rng.Float64()*4*math.Pi - 2*math.Pi
		a, b := rng.Intn(4), rng.Intn(4)
		if a == b {
			continue
		}
		s1 := randomState(rng, 4)
		s2 := s1.Clone()
		s1.ZZ(a, b, theta)
		s2.CNOT(a, b)
		s2.RZ(b, theta)
		s2.CNOT(a, b)
		if !s1.Equal(s2, 1e-12) {
			t.Fatalf("ZZ != CNOT·RZ·CNOT for θ=%v qubits (%d,%d)", theta, a, b)
		}
	}
}

func TestExpectationDiagonal(t *testing.T) {
	s := NewState(2)
	s.H(0)
	s.H(1)
	diag := []float64{0, 1, 2, 3}
	if got := s.ExpectationDiagonal(diag); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("expectation = %v, want 1.5", got)
	}
}

func TestInnerProductAndFidelity(t *testing.T) {
	s := NewState(2)
	if got := s.InnerProduct(s); cmplx.Abs(got-1) > 1e-12 {
		t.Errorf("<s|s> = %v", got)
	}
	o := NewBasisState(2, 1)
	if got := s.Fidelity(o); got != 0 {
		t.Errorf("orthogonal fidelity = %v", got)
	}
}

func TestEqualUpToGlobalPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := randomState(rng, 3)
	p := s.Clone()
	p.ApplyDiagonalPhase(constantPhases(8, 1.234))
	if s.Equal(p, 1e-9) {
		t.Error("global phase should break exact equality")
	}
	if !s.EqualUpToGlobalPhase(p, 1e-9) {
		t.Error("global phase should preserve the ray")
	}
}

func TestNormalize(t *testing.T) {
	s := NewState(1)
	s.amps[0] = 3
	s.amps[1] = 4
	s.Normalize()
	if math.Abs(s.Norm()-1) > 1e-12 {
		t.Errorf("norm after Normalize = %v", s.Norm())
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	cases := []func(){
		func() { NewState(0) },
		func() { NewState(MaxQubits + 1) },
		func() { NewBasisState(2, 4) },
		func() { NewState(2).H(2) },
		func() { NewState(2).CNOT(1, 1) },
		func() { NewState(2).CZ(0, 0) },
		func() { NewState(2).ZZ(1, 1, 0.5) },
		func() { NewState(2).ExpectationDiagonal([]float64{1}) },
		func() { NewState(1).InnerProduct(NewState(2)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: every gate preserves the state norm (unitarity).
func TestGatesPreserveNorm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomState(rng, 4)
		theta := rng.Float64() * 2 * math.Pi
		switch rng.Intn(9) {
		case 0:
			s.H(rng.Intn(4))
		case 1:
			s.X(rng.Intn(4))
		case 2:
			s.RX(rng.Intn(4), theta)
		case 3:
			s.RY(rng.Intn(4), theta)
		case 4:
			s.RZ(rng.Intn(4), theta)
		case 5:
			s.CNOT(0, 1+rng.Intn(3))
		case 6:
			s.CZ(0, 1+rng.Intn(3))
		case 7:
			s.ZZ(0, 1+rng.Intn(3), theta)
		case 8:
			s.Phase(rng.Intn(4), theta)
		}
		return math.Abs(s.Norm()-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: rotation gates compose additively: R(a)R(b) = R(a+b).
func TestRotationAdditivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.Float64()*2*math.Pi - math.Pi
		b := rng.Float64()*2*math.Pi - math.Pi
		q := rng.Intn(3)
		s1 := randomState(rng, 3)
		s2 := s1.Clone()
		s1.RX(q, a)
		s1.RX(q, b)
		s2.RX(q, a+b)
		if !s1.Equal(s2, 1e-10) {
			return false
		}
		s1.RZ(q, a)
		s1.RZ(q, b)
		s2.RZ(q, a+b)
		return s1.Equal(s2, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: probabilities sum to 1.
func TestProbabilitiesSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomState(rng, 5)
		total := 0.0
		for _, p := range s.Probabilities() {
			total += p
		}
		return math.Abs(total-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// randomState returns a Haar-ish random normalized state.
func randomState(rng *rand.Rand, n int) *State {
	s := NewState(n)
	for i := range s.amps {
		s.amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	s.Normalize()
	return s
}

func constantPhases(n int, phi float64) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = phi
	}
	return p
}
