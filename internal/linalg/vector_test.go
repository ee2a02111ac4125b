package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVectorMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched lengths")
		}
	}()
	_ = Vector{1}.Dot(Vector{1, 2})
}

// Property: dot product is symmetric and Cauchy-Schwarz holds.
func TestVectorDotProperties(t *testing.T) {
	f := func(a, b [8]float64) bool {
		v, w := tame(a[:]), tame(b[:])
		d1, d2 := v.Dot(w), w.Dot(v)
		if math.Abs(d1-d2) > 1e-9*(1+math.Abs(d1)) {
			return false
		}
		return math.Abs(d1) <= math.Sqrt(v.Dot(v))*math.Sqrt(w.Dot(w))*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// tame replaces NaN/Inf/huge quick-generated values with bounded ones so
// float roundoff bounds in properties stay meaningful.
func tame(xs []float64) Vector {
	v := make(Vector, len(xs))
	for i, x := range xs {
		switch {
		case math.IsNaN(x) || math.IsInf(x, 0):
			v[i] = 1
		case x > 1e6:
			v[i] = 1e6
		case x < -1e6:
			v[i] = -1e6
		default:
			v[i] = x
		}
	}
	return v
}
