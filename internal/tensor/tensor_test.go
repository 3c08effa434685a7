package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", shape[0], shape[1])
				}
			}()
			New(shape[0], shape[1])
		}()
	}
}

// mat wraps data as a rows×cols matrix.
func mat(rows, cols int, data ...float64) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// equalish reports whether a and b have one shape and match within tol
// element-wise.
func equalish(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// transpose returns mᵀ, the reference the transposed-operand products
// are held to.
func transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

func TestClone(t *testing.T) {
	m := New(2, 3)
	m.Data[5] = 7
	c := m.Clone()
	if !equalish(c, m, 0) {
		t.Fatal("Clone differs from the original")
	}
	c.Data[5] = 9
	if m.Data[5] != 7 {
		t.Fatal("Clone aliases original")
	}
}

func TestMatMulSmallKnown(t *testing.T) {
	a := mat(2, 3, 1, 2, 3, 4, 5, 6)
	b := mat(3, 2, 7, 8, 9, 10, 11, 12)
	dst := New(2, 2)
	MatMul(dst, a, b)
	want := mat(2, 2, 58, 64, 139, 154)
	if !equalish(dst, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", dst.Data, want.Data)
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape-mismatched MatMul did not panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2))
}

// naiveMul is the reference ijk triple loop.
func naiveMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(97, 53).Randn(rng, 1)
	b := New(53, 61).Randn(rng, 1)
	dst := New(97, 61)
	MatMul(dst, a, b)
	if !equalish(dst, naiveMul(a, b), 1e-9) {
		t.Fatal("MatMul disagrees with naive reference")
	}
}

func TestMatMulTAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(17, 9).Randn(rng, 1)
	b := New(17, 13).Randn(rng, 1)
	got := New(9, 13)
	MatMulTA(got, a, b)
	want := New(9, 13)
	MatMul(want, transpose(a), b)
	if !equalish(got, want, 1e-9) {
		t.Fatal("MatMulTA != Transpose+MatMul")
	}
}

func TestMatMulTBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(11, 7).Randn(rng, 1)
	b := New(19, 7).Randn(rng, 1)
	got := New(11, 19)
	MatMulTB(got, a, b)
	want := New(11, 19)
	MatMul(want, a, transpose(b))
	if !equalish(got, want, 1e-9) {
		t.Fatal("MatMulTB != MatMul with explicit transpose")
	}
}

func TestAddScaledAndScale(t *testing.T) {
	m := mat(1, 3, 1, 2, 3)
	o := mat(1, 3, 1, 1, 1)
	m.AddScaled(o, -2)
	if !equalish(m, mat(1, 3, -1, 0, 1), 0) {
		t.Fatalf("AddScaled = %v", m.Data)
	}
	m.Scale(3)
	if !equalish(m, mat(1, 3, -3, 0, 3), 0) {
		t.Fatalf("Scale = %v", m.Data)
	}
}

func TestSubAndMSE(t *testing.T) {
	a := mat(1, 2, 3, 5)
	b := mat(1, 2, 1, 1)
	d := New(1, 2)
	Sub(d, a, b)
	if !equalish(d, mat(1, 2, 2, 4), 0) {
		t.Fatalf("Sub = %v", d.Data)
	}
	if got := MSE(a, b); math.Abs(got-10) > 1e-12 {
		t.Fatalf("MSE = %v, want 10", got)
	}
}

func TestRandnDeterministic(t *testing.T) {
	a := New(4, 4).Randn(rand.New(rand.NewSource(42)), 1)
	b := New(4, 4).Randn(rand.New(rand.NewSource(42)), 1)
	if !equalish(a, b, 0) {
		t.Fatal("same seed should give same matrix")
	}
}

func TestMatMulLinearityProperty(t *testing.T) {
	// (alpha*a)·b == alpha*(a·b)
	f := func(seed int64, alphaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := float64(alphaRaw%7) - 3
		a := New(5, 4).Randn(rng, 1)
		b := New(4, 6).Randn(rng, 1)
		left := New(5, 6)
		sa := a.Clone()
		sa.Scale(alpha)
		MatMul(left, sa, b)
		right := New(5, 6)
		MatMul(right, a, b)
		right.Scale(alpha)
		return equalish(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := New(128, 128).Randn(rng, 1)
	y := New(128, 128).Randn(rng, 1)
	dst := New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}
