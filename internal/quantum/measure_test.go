package quantum

import (
	"math"
	"testing"
)

func TestExpectationZ(t *testing.T) {
	s := NewState(2)
	if got := s.ExpectationZ(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("<Z>|00> = %v, want 1", got)
	}
	s.RX(1, math.Pi) // -i|10>
	if got := s.ExpectationZ(1); math.Abs(got+1) > 1e-12 {
		t.Errorf("<Z1> after RX(π) = %v, want -1", got)
	}
	h := NewState(1)
	h.H(0)
	if got := h.ExpectationZ(0); math.Abs(got) > 1e-12 {
		t.Errorf("<Z>|+> = %v, want 0", got)
	}
}

func TestExpectationZZ(t *testing.T) {
	bell := NewState(2)
	bell.H(0)
	bell.CNOT(0, 1)
	if got := bell.ExpectationZZ(0, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("<ZZ> Bell = %v, want 1", got)
	}
	anti := NewState(2)
	anti.H(0)
	anti.CNOT(0, 1)
	anti.RX(1, math.Pi) // -i(|01>+|10>)
	if got := anti.ExpectationZZ(0, 1); math.Abs(got+1) > 1e-12 {
		t.Errorf("<ZZ> anti-Bell = %v, want -1", got)
	}
}
