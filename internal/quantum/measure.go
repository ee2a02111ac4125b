package quantum

// ExpectationZ returns ⟨Zq⟩ for qubit q.
func (s *State) ExpectationZ(q int) float64 {
	s.checkQubit(q)
	bit := 1 << uint(q)
	e := 0.0
	for i, a := range s.amps {
		p := real(a)*real(a) + imag(a)*imag(a)
		if i&bit == 0 {
			e += p
		} else {
			e -= p
		}
	}
	return e
}

// ExpectationZZ returns ⟨Za·Zb⟩ for qubits a and b.
func (s *State) ExpectationZZ(a, b int) float64 {
	s.checkQubit(a)
	s.checkQubit(b)
	abit, bbit := 1<<uint(a), 1<<uint(b)
	e := 0.0
	for i, amp := range s.amps {
		p := real(amp)*real(amp) + imag(amp)*imag(amp)
		if (i&abit != 0) == (i&bbit != 0) {
			e += p
		} else {
			e -= p
		}
	}
	return e
}
