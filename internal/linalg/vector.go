// Package linalg provides the dense real linear algebra needed by the
// rest of the repository: vectors, row-major matrices, Householder QR,
// Cholesky and LU factorizations, and linear solvers.
//
// It replaces the NumPy/SciPy and MATLAB routines used in the paper's
// original stack. Everything is float64 and allocation-explicit; the
// problem sizes in this reproduction (matrices up to a few hundred rows
// for Gaussian-process regression) do not need blocked or parallel
// kernels.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector.
type Vector []float64

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Add returns v + w. It panics if lengths differ.
func (v Vector) Add(w Vector) Vector {
	checkLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w. It panics if lengths differ.
func (v Vector) Sub(w Vector) Vector {
	checkLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns a*v.
func (v Vector) Scale(a float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = a * v[i]
	}
	return out
}

// AddScaled adds a*w to v in place and returns v.
func (v Vector) AddScaled(a float64, w Vector) Vector {
	checkLen(v, w)
	for i := range v {
		v[i] += a * w[i]
	}
	return v
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	checkLen(v, w)
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// NormInf returns the maximum absolute entry of v (0 for empty v).
func (v Vector) NormInf() float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Max returns the maximum entry of v. It panics on an empty vector.
func (v Vector) Max() float64 {
	if len(v) == 0 {
		panic("linalg: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum entry of v. It panics on an empty vector.
func (v Vector) Min() float64 {
	if len(v) == 0 {
		panic("linalg: Min of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Equal reports whether v and w have the same length and entries within tol.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

func checkLen(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: vector length mismatch %d != %d", len(v), len(w)))
	}
}
