package quantum

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// Clone returns a deep copy of s.
func (s *State) Clone() *State {
	c := &State{n: s.n, amps: make([]complex128, len(s.amps))}
	ampBytes.Add(int64(16 * len(s.amps)))
	copy(c.amps, s.amps)
	return c
}

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

func TestHadamardSuperposition(t *testing.T) {
	s := NewState(1)
	s.H(0)
	if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(1)-0.5) > 1e-12 {
		t.Errorf("H|0> probs = %v", s.amps)
	}
	s.H(0) // H is an involution
	if math.Abs(s.Probability(0)-1) > 1e-12 {
		t.Errorf("H² != I: %v", s.amps)
	}
}

func TestBellState(t *testing.T) {
	s := NewState(2)
	s.H(0)
	s.CNOT(0, 1)
	if math.Abs(s.Probability(0b00)-0.5) > 1e-12 || math.Abs(s.Probability(0b11)-0.5) > 1e-12 {
		t.Errorf("Bell probs = %v", s.amps)
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
	s.amps[0], s.amps[1] = 0, 1
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
		t.Errorf("RX(π)|0> probs = %v", s.amps)
	}
	s2 := NewState(1)
	s2.RX(0, math.Pi/2)
	if math.Abs(s2.Probability(0)-0.5) > 1e-12 {
		t.Errorf("RX(π/2) probs = %v", s2.amps)
	}
}

// exp(−iθ Z_aZ_b/2) — the diagonal phase e^{∓iθ/2} as bits a and b
// agree or differ — equals CNOT(a,b)·RZ_b(θ)·CNOT(a,b), the coupling
// gates of the QAOA gate oracle.
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
		phases := make([]float64, s1.Dim())
		for z := range phases {
			if (z>>uint(a))&1 == (z>>uint(b))&1 {
				phases[z] = -theta / 2
			} else {
				phases[z] = theta / 2
			}
		}
		s1.ApplyDiagonalPhase(phases)
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
	o := NewState(2)
	o.amps[0], o.amps[1] = 0, 1
	if ip := s.InnerProduct(o); real(ip)*real(ip)+imag(ip)*imag(ip) != 0 {
		t.Errorf("orthogonal fidelity |<s|o>|² = %v", ip)
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
		func() { NewState(2).H(2) },
		func() { NewState(2).CNOT(1, 1) },
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
		switch rng.Intn(4) {
		case 0:
			s.H(rng.Intn(4))
		case 1:
			s.RX(rng.Intn(4), theta)
		case 2:
			s.RZ(rng.Intn(4), theta)
		case 3:
			s.CNOT(0, 1+rng.Intn(3))
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
		for i := range s.amps {
			total += s.Probability(uint64(i))
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
