package linalg

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, element (i,j) at Data[i*Cols+j]
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product m·b. It panics if inner dimensions differ.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch (%dx%d)·(%dx%d)", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Data[i*m.Cols : (i+1)*m.Cols]
		ci := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			bk := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j := range ci {
				ci[j] += mik * bk[j]
			}
		}
	}
	return c
}

// MulVec returns m·v. It panics if m.Cols != len(v).
func (m *Matrix) MulVec(v Vector) Vector { return m.MulVecTo(make(Vector, m.Rows), v) }

// MulVecTo writes m·v into out, which must not share memory with v, and
// returns out. It panics if m.Cols != len(v) or m.Rows != len(out).
func (m *Matrix) MulVecTo(out, v Vector) Vector {
	if m.Cols != len(v) || m.Rows != len(out) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch (%dx%d)·(%d) into (%d)", m.Rows, m.Cols, len(v), len(out)))
	}
	for i := 0; i < m.Rows; i++ {
		out[i] = Vector(m.Data[i*m.Cols : (i+1)*m.Cols]).Dot(v)
	}
	return out
}

// AddToDiag adds a to each diagonal entry in place and returns m.
func (m *Matrix) AddToDiag(a float64) *Matrix {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+a)
	}
	return m
}

func (m *Matrix) checkSquare() {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("linalg: %dx%d matrix is not square", m.Rows, m.Cols))
	}
}
