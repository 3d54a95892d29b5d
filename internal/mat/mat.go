// Package mat is the complex matrix library underlying equalization and
// precoding, standing in for Intel MKL in the original Agora. It provides:
//
//   - dense complex64 matrices with row-major storage,
//   - matrix-vector kernels selected at plan time, an unrolled one and
//     the textbook loop (the analogue of MKL's JIT GEMM),
//   - blocked BLAS-3 kernels (block.go): MulBlockInto computes
//     dst = w·ytᵀ over a whole multi-subcarrier tile, with the right
//     operand transposed so the engine's subcarrier-major buffers wrap
//     in place as the B×M operand — no gather, copy or allocation
//     (DESIGN §9). PlanBlockMul extends the JIT-style plan registry to
//     these kernels.
//   - Gauss–Jordan inversion with partial pivoting (complex128 internally),
//   - the direct zero-forcing pseudo-inverse W = (HᴴH)⁻¹Hᴴ,
//   - a one-sided Jacobi SVD and an SVD-based pseudo-inverse (the
//     numerically-robust-but-slow baseline from paper §4.2),
//   - condition-number estimation.
//
// Every blocked kernel computes each output column from an independent
// pass over the corresponding yt row (split real/imaginary float32
// accumulators, ascending inner index), so results are bit-identical
// regardless of how a caller tiles the column range — the property the
// engine's fused equalize+demod strips rely on (DESIGN §9).
//
// Matrices are small (K ≤ 64, M ≤ 256) and owned by one task at a time, so
// no internal locking is needed.
package mat

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// M is a dense row-major complex64 matrix.
type M struct {
	Rows, Cols int
	Data       []complex64 // len == Rows*Cols
}

// New allocates an r×c zero matrix.
func New(r, c int) *M {
	return &M{Rows: r, Cols: c, Data: make([]complex64, r*c)}
}

// At returns element (i,j).
func (m *M) At(i, j int) complex64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *M) Set(i, j int, v complex64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *M) Row(i int) []complex64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *M) Clone() *M {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m (dimensions must match).
func (m *M) CopyFrom(src *M) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("mat: CopyFrom shape mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero clears the matrix in place.
func (m *M) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Eye fills m with the identity (must be square).
func (m *M) Eye() {
	if m.Rows != m.Cols {
		panic("mat: Eye on non-square")
	}
	m.Zero()
	for i := 0; i < m.Rows; i++ {
		m.Set(i, i, 1)
	}
}

// ConjTransposeInto writes mᴴ into dst (dst must be Cols×Rows).
func (m *M) ConjTransposeInto(dst *M) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic("mat: ConjTranspose shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst.Data[j*dst.Cols+i] = complex(real(v), -imag(v))
		}
	}
}

// Random fills m with i.i.d. CN(0,1)/sqrt(2)-per-component entries.
func (m *M) Random(rng *rand.Rand) {
	for i := range m.Data {
		m.Data[i] = complex(float32(rng.NormFloat64()/math.Sqrt2), float32(rng.NormFloat64()/math.Sqrt2))
	}
}

// FrobNorm returns the Frobenius norm in float64.
func (m *M) FrobNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(real(v))*float64(real(v)) + float64(imag(v))*float64(imag(v))
	}
	return math.Sqrt(s)
}

// FrobNormSq returns the squared Frobenius norm in float64.
func (m *M) FrobNormSq() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(real(v))*float64(real(v)) + float64(imag(v))*float64(imag(v))
	}
	return s
}

// FrobDiffSq returns ‖m − o‖²_F, the squared Frobenius norm of the
// difference (the coherence test the ZF cache runs per pilot).
func (m *M) FrobDiffSq(o *M) float64 {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("mat: FrobDiffSq shape mismatch")
	}
	var s float64
	for i, v := range m.Data {
		d := v - o.Data[i]
		s += float64(real(d))*float64(real(d)) + float64(imag(d))*float64(imag(d))
	}
	return s
}

// MaxAbsDiff returns max_{ij} |m_ij - o_ij|.
func (m *M) MaxAbsDiff(o *M) float64 {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("mat: MaxAbsDiff shape mismatch")
	}
	var d float64
	for i, v := range m.Data {
		if a := cmplx.Abs(complex128(v - o.Data[i])); a > d {
			d = a
		}
	}
	return d
}

// String renders a small matrix for debugging.
func (m *M) String() string {
	s := fmt.Sprintf("mat %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		for i := 0; i < m.Rows; i++ {
			s += "\n"
			for j := 0; j < m.Cols; j++ {
				s += fmt.Sprintf(" %6.3f%+6.3fi", real(m.At(i, j)), imag(m.At(i, j)))
			}
		}
	}
	return s
}
