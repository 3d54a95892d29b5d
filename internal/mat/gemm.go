package mat

import "fmt"

// MulInto computes dst = a*b using the cache-friendly ikj (saxpy) ordering:
// b is streamed row-by-row and dst rows stay hot. dst must not alias a or b.
func MulInto(dst, a, b *M) {
	checkMulShapes(dst, a, b)
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
		arow := a.Row(i)
		for k, av := range arow {
			// No zero-skip here: dense complex channel matrices are
			// essentially never exactly zero, so the branch only costs
			// prediction slots in the hot loop.
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func checkMulShapes(dst, a, b *M) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: mul shapes %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// MulConjAInto computes dst = aᴴ*b without materializing aᴴ.
// a is r×c, b is r×n, dst is c×n.
func MulConjAInto(dst, a, b *M) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("mat: MulConjAInto shape mismatch")
	}
	n := b.Cols
	for j := range dst.Data {
		dst.Data[j] = 0
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Data[k*n : (k+1)*n]
		for i, av := range arow {
			avc := complex(real(av), -imag(av))
			drow := dst.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += avc * bv
			}
		}
	}
}

// GramInto computes dst = aᴴ*a (the K×K Gram matrix of an M×K channel),
// exploiting Hermitian symmetry: only the upper triangle is accumulated
// and then mirrored.
func GramInto(dst, a *M) {
	k := a.Cols
	if dst.Rows != k || dst.Cols != k {
		panic("mat: GramInto shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	gramRangeInto(dst, a, 0, a.Rows)
	mirrorGram(dst)
}

// gramRangeInto accumulates the upper triangle of aᴴ*a restricted to
// antenna rows [r0, r1) into dst — the per-cluster partial Gram H_cᴴH_c
// of decentralized baseband processing. dst is not zeroed and the lower
// triangle is not mirrored; callers compose ranges and finish with
// mirrorGram. GramInto and GramClusteredInto both run this exact kernel,
// so a single full range is bit-identical to the monolithic path.
func gramRangeInto(dst, a *M, r0, r1 int) {
	k := a.Cols
	for r := r0; r < r1; r++ {
		row := a.Row(r)
		for i := 0; i < k; i++ {
			ai := complex(real(row[i]), -imag(row[i]))
			drow := dst.Data[i*k : (i+1)*k]
			for j := i; j < k; j++ {
				drow[j] += ai * row[j]
			}
		}
	}
}

// mirrorGram fills the lower triangle of a Hermitian matrix from the
// accumulated upper triangle.
func mirrorGram(dst *M) {
	k := dst.Cols
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			v := dst.At(i, j)
			dst.Set(j, i, complex(real(v), -imag(v)))
		}
	}
}

// GramClusteredInto computes dst = aᴴ*a the way a decentralized
// deployment would (PAPERS.md: "Decentralized Baseband Processing for
// Massive MU-MIMO Systems"): the M antenna rows are partitioned into
// `clusters` contiguous clusters, each computing its partial Gram
// H_cᴴH_c independently into part, and a central reduce sums the
// partials in cluster order. part is scratch of the same K×K shape as
// dst. clusters <= 1 degenerates to GramInto's single full-range pass.
func GramClusteredInto(dst, part, a *M, clusters int) {
	k := a.Cols
	if dst.Rows != k || dst.Cols != k {
		panic("mat: GramClusteredInto shape mismatch")
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	if clusters <= 1 {
		gramRangeInto(dst, a, 0, a.Rows)
		mirrorGram(dst)
		return
	}
	if clusters > a.Rows {
		clusters = a.Rows
	}
	if part.Rows != k || part.Cols != k {
		panic("mat: GramClusteredInto scratch shape mismatch")
	}
	for c := 0; c < clusters; c++ {
		r0 := c * a.Rows / clusters
		r1 := (c + 1) * a.Rows / clusters
		for i := range part.Data {
			part.Data[i] = 0
		}
		gramRangeInto(part, a, r0, r1)
		for i, v := range part.Data {
			dst.Data[i] += v
		}
	}
	mirrorGram(dst)
}

// MulVecInto computes dst = a*x for a column vector x with the inner loop
// unrolled 4-wide over split real/imaginary accumulators — the hot
// per-subcarrier equalization kernel (K×M · M×1).
func MulVecInto(dst []complex64, a *M, x []complex64) {
	if len(x) != a.Cols || len(dst) != a.Rows {
		panic("mat: MulVecInto shape mismatch")
	}
	c := a.Cols
	c4 := c &^ 3
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var r0, i0, r1, i1, r2, i2, r3, i3 float32
		for j := 0; j < c4; j += 4 {
			a0, a1, a2, a3 := row[j], row[j+1], row[j+2], row[j+3]
			x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3]
			r0 += real(a0)*real(x0) - imag(a0)*imag(x0)
			i0 += real(a0)*imag(x0) + imag(a0)*real(x0)
			r1 += real(a1)*real(x1) - imag(a1)*imag(x1)
			i1 += real(a1)*imag(x1) + imag(a1)*real(x1)
			r2 += real(a2)*real(x2) - imag(a2)*imag(x2)
			i2 += real(a2)*imag(x2) + imag(a2)*real(x2)
			r3 += real(a3)*real(x3) - imag(a3)*imag(x3)
			i3 += real(a3)*imag(x3) + imag(a3)*real(x3)
		}
		for j := c4; j < c; j++ {
			v := row[j] * x[j]
			r0 += real(v)
			i0 += imag(v)
		}
		dst[i] = complex(r0+r1+r2+r3, i0+i1+i2+i3)
	}
}

// MulVecIntoNaive is the straightforward matvec used when specialized
// kernels are disabled.
func MulVecIntoNaive(dst []complex64, a *M, x []complex64) {
	if len(x) != a.Cols || len(dst) != a.Rows {
		panic("mat: MulVecIntoNaive shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s complex64
		for j, av := range row {
			s += av * x[j]
		}
		dst[i] = s
	}
}

// MatVecKernel is a matrix-vector routine. PlanMatVec picks between the
// specialized and naive versions, the analogue of MKL JIT code generation
// for a fixed problem size.
type MatVecKernel func(dst []complex64, a *M, x []complex64)

// PlanMatVec returns the unrolled matvec kernel when specialization is
// enabled, the textbook loop otherwise.
func PlanMatVec(useSpecialized bool) MatVecKernel {
	if useSpecialized {
		return MulVecInto
	}
	return MulVecIntoNaive
}
