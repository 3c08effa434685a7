// Package tensor provides the dense float64 matrix kernels the LoRA
// attention trainer (internal/train) calls: allocation, matrix multiply
// and its transposed-operand forms, element-wise updates, and random
// initialization. It holds nothing a trainer does not call.
package tensor

import (
	"fmt"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zero matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: non-positive shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero clears all elements in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Randn fills m with N(0, std²) entries from rng.
func (m *Matrix) Randn(rng *rand.Rand, std float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// AddScaled computes m += alpha*o in place.
func (m *Matrix) AddScaled(o *Matrix, alpha float64) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: AddScaled shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	for i := range m.Data {
		m.Data[i] += alpha * o.Data[i]
	}
}

// Scale multiplies every element by alpha in place.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// MatMul computes dst = a·b. dst must be pre-shaped (a.Rows × b.Cols) and
// must not alias a or b. The loop order is ikj, so the inner loop streams
// rows of b.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shapes %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	n, p := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*n : (i+1)*n]
		drow := dst.Data[i*p : (i+1)*p]
		for k := 0; k < n; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Data[k*p : (k+1)*p]
			for j, bv := range brow {
				drow[j] += aik * bv
			}
		}
	}
}

// MatMulTA computes dst = aᵀ·b without materializing aᵀ.
func MatMulTA(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTA shapes %dx%dᵀ · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	n, p := a.Cols, b.Cols
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*n : (r+1)*n]
		brow := b.Data[r*p : (r+1)*p]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[i*p : (i+1)*p]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMulTB computes dst = a·bᵀ without materializing bᵀ.
func MatMulTB(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTB shapes %dx%d · %dx%dᵀ -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*n : (i+1)*n]
		drow := dst.Data[i*b.Rows : (i+1)*b.Rows]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*n : (j+1)*n]
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
}

// Sub computes dst = a − b element-wise.
func Sub(dst, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("tensor: Sub shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// MSE returns the mean squared error between a and b.
func MSE(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: MSE shape mismatch")
	}
	s := 0.0
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		s += d * d
	}
	return s / float64(len(a.Data))
}
