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

import "fmt"

// Vector is a dense column vector.
type Vector []float64

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	checkLen(v, w)
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

func checkLen(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: vector length mismatch %d != %d", len(v), len(w)))
	}
}
