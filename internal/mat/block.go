package mat

import "fmt"

// This file implements the blocked (BLAS-3) multi-subcarrier kernels used
// by the modulation+precoding block, and the reference the equalizer's
// tile kernels (tile.go) are held to.
//
// Layout. A subcarrier-major buffer holds the antenna vector of
// subcarrier sc as the contiguous complex64 run [sc*M, (sc+1)*M), so a
// block of B consecutive subcarriers is a ready-made B×M row-major matrix
// — the transpose yᵀ of the M×B matrix y whose columns are the vectors.
// An M header over the buffer region wraps it in place for the kernel.
//
// MulBlockInto therefore takes the right-hand operand transposed and
// computes, for dst R×B, w R×C and yt B×C,
//
//	dst = w · ytᵀ        i.e.  dst[i][j] = Σ_c w[i][c]·yt[j][c],
//
// so every inner product runs over two contiguous rows. For precoding w
// is the B×K modulated-symbol block and yt the M×K precoder (dst B×M:
// exactly the subcarrier-major downlink grid region). For equalization w
// is the K×M beamweight matrix and yt a B×M block of received vectors
// (dst K×B: row u holds user u's equalized symbols, feeding one batched
// demodulation call) — the engine's tile kernels compute exactly this on
// the uplink grid's tiles without transposing them, and the benchmark's
// layer walk runs it on a subcarrier-major grid of its own.

// BlockKernel is a blocked multiply routine with the MulBlockInto
// contract. PlanBlockMul picks between size-specialized, generic and
// naive versions, the analogue of MKL JIT code generation for a fixed
// problem size. A one-column block (B=1) is a matvec: the engine runs
// those on strips cut to one subcarrier by a group or block boundary.
type BlockKernel func(dst, w, yt *M)

func checkBlockShapes(dst, w, yt *M) {
	if dst.Rows != w.Rows || dst.Cols != yt.Rows || w.Cols != yt.Cols {
		panic(fmt.Sprintf("mat: block shapes %dx%d * (%dx%d)ᵀ -> %dx%d",
			w.Rows, w.Cols, yt.Rows, yt.Cols, dst.Rows, dst.Cols))
	}
}

// mulBlockCols4 accumulates four output columns j…j+3 of one dst row:
// eight split real/imaginary accumulators, the widest set the compiler
// keeps in registers. Both the 16-wide column pass and the 4-wide tail of
// MulBlockInto drain through this core.
func mulBlockCols4(drow, wr []complex64, yt *M, j int) {
	y0 := yt.Row(j)
	y1 := yt.Row(j + 1)
	y2 := yt.Row(j + 2)
	y3 := yt.Row(j + 3)
	var r0, i0, r1, i1, r2, i2, r3, i3 float32
	for m, wv := range wr {
		wre, wim := real(wv), imag(wv)
		v := y0[m]
		r0 += wre*real(v) - wim*imag(v)
		i0 += wre*imag(v) + wim*real(v)
		v = y1[m]
		r1 += wre*real(v) - wim*imag(v)
		i1 += wre*imag(v) + wim*real(v)
		v = y2[m]
		r2 += wre*real(v) - wim*imag(v)
		i2 += wre*imag(v) + wim*real(v)
		v = y3[m]
		r3 += wre*real(v) - wim*imag(v)
		i3 += wre*imag(v) + wim*real(v)
	}
	drow[j] = complex(r0, i0)
	drow[j+1] = complex(r1, i1)
	drow[j+2] = complex(r2, i2)
	drow[j+3] = complex(r3, i3)
}

// MulBlockInto computes dst = w·ytᵀ (see the file comment for the layout
// rationale). The column loop is blocked sixteen wide — one precode tile
// of the paper's configurations (ZFGroupSize 16) per pass, so full tiles
// never hit tail handling — with the remainder drained by a four-wide
// pass, a two-wide pass and a final single column, all with split
// real/imaginary accumulators. Every output element is one accumulation
// over ascending m in the same operand order, so every specialized plan
// returns exactly its bits: it is the reference the plans are tested
// against.
func MulBlockInto(dst, w, yt *M) {
	checkBlockShapes(dst, w, yt)
	b := yt.Rows
	for i := 0; i < w.Rows; i++ {
		wr := w.Row(i)
		drow := dst.Row(i)
		j := 0
		for ; j+15 < b; j += 16 {
			mulBlockCols4(drow, wr, yt, j)
			mulBlockCols4(drow, wr, yt, j+4)
			mulBlockCols4(drow, wr, yt, j+8)
			mulBlockCols4(drow, wr, yt, j+12)
		}
		for ; j+3 < b; j += 4 {
			mulBlockCols4(drow, wr, yt, j)
		}
		if j+1 < b {
			y0 := yt.Row(j)
			y1 := yt.Row(j + 1)
			var r0, i0, r1, i1 float32
			for m, wv := range wr {
				wre, wim := real(wv), imag(wv)
				v := y0[m]
				r0 += wre*real(v) - wim*imag(v)
				i0 += wre*imag(v) + wim*real(v)
				v = y1[m]
				r1 += wre*real(v) - wim*imag(v)
				i1 += wre*imag(v) + wim*real(v)
			}
			drow[j] = complex(r0, i0)
			drow[j+1] = complex(r1, i1)
			j += 2
		}
		if j < b {
			yr := yt.Row(j)
			var re, im float32
			for m, wv := range wr {
				v := yr[m]
				re += real(wv)*real(v) - imag(wv)*imag(v)
				im += real(wv)*imag(v) + imag(wv)*real(v)
			}
			drow[j] = complex(re, im)
		}
	}
}

// MulBlockIntoNaive is the textbook loop nest with a scalar complex
// accumulator: the "JIT disabled" baseline for the blocked kernels.
func MulBlockIntoNaive(dst, w, yt *M) {
	checkBlockShapes(dst, w, yt)
	for i := 0; i < w.Rows; i++ {
		wr := w.Row(i)
		drow := dst.Row(i)
		for j := 0; j < yt.Rows; j++ {
			yr := yt.Row(j)
			var s complex64
			for m := range wr {
				s += wr[m] * yr[m]
			}
			drow[j] = s
		}
	}
}

// mulBlockRows2 is the fully-unrolled two-row plan (K=2 users): one pass
// over the subcarrier block accumulates both output rows, so yt is
// streamed exactly once.
func mulBlockRows2(dst, w, yt *M) {
	if w.Rows != 2 {
		MulBlockInto(dst, w, yt)
		return
	}
	checkBlockShapes(dst, w, yt)
	w0, w1 := w.Row(0), w.Row(1)
	d0, d1 := dst.Row(0), dst.Row(1)
	for j := 0; j < yt.Rows; j++ {
		yr := yt.Row(j)
		var r0, i0, r1, i1 float32
		for m, v := range yr {
			vr, vi := real(v), imag(v)
			a := w0[m]
			r0 += real(a)*vr - imag(a)*vi
			i0 += real(a)*vi + imag(a)*vr
			a = w1[m]
			r1 += real(a)*vr - imag(a)*vi
			i1 += real(a)*vi + imag(a)*vr
		}
		d0[j] = complex(r0, i0)
		d1[j] = complex(r1, i1)
	}
}

// simdRows4 is the platform's vector implementation of
// mulBlockRows4Group's loop over one group of four output rows and the
// whole groups of four columns (m >= 1, b >= 4), nil where the build has
// none or the CPU/OS cannot run it. It is set once at package init and
// afterwards only flipped by tests (forceGoKernels).
var simdRows4 func(dst, w, yt *complex64, m, b int)

// Kernel reports which kernel the four-row plans — mulBlockRows4Group,
// which PlanBlockMul returns for any multiple of four rows, and
// mulTileRows4, PlanTileMul's specialized plan — run in this process:
// "avx2" or "generic" (the portable Go loops). MulBlockInto, the two-row plan, the Go tile loop and the
// textbook loops are Go everywhere.
func Kernel() string {
	if simdRows4 != nil {
		return "avx2"
	}
	return "generic"
}

// mulBlockRows4Group streams yt once per group of four output rows: the
// plan for the 4-user cells (one group) and for 8, 16 or any other
// multiple of four users, so the whole multiply reads yt rows/4 times
// instead of rows times. Where simdRows4 is set it covers the whole
// groups of four columns and the Go loop drains the last b mod 4.
func mulBlockRows4Group(dst, w, yt *M) {
	if w.Rows < 4 || w.Rows%4 != 0 {
		MulBlockInto(dst, w, yt)
		return
	}
	checkBlockShapes(dst, w, yt)
	cols, b := w.Cols, yt.Rows
	for r := 0; r < w.Rows; r += 4 {
		w0, w1, w2, w3 := w.Row(r), w.Row(r+1), w.Row(r+2), w.Row(r+3)
		d0, d1, d2, d3 := dst.Row(r), dst.Row(r+1), dst.Row(r+2), dst.Row(r+3)
		j := 0
		if simdRows4 != nil && cols > 0 && b >= 4 {
			_ = yt.Data[b*cols-1] // the tile reads rows [0, b) unchecked
			simdRows4(&d0[0], &w0[0], &yt.Data[0], cols, b)
			j = b &^ 3
		}
		for ; j < b; j++ {
			yr := yt.Row(j)
			var r0, i0, r1, i1, r2, i2, r3, i3 float32
			for m, v := range yr {
				vr, vi := real(v), imag(v)
				a := w0[m]
				r0 += real(a)*vr - imag(a)*vi
				i0 += real(a)*vi + imag(a)*vr
				a = w1[m]
				r1 += real(a)*vr - imag(a)*vi
				i1 += real(a)*vi + imag(a)*vr
				a = w2[m]
				r2 += real(a)*vr - imag(a)*vi
				i2 += real(a)*vi + imag(a)*vr
				a = w3[m]
				r3 += real(a)*vr - imag(a)*vi
				i3 += real(a)*vi + imag(a)*vr
			}
			d0[j] = complex(r0, i0)
			d1[j] = complex(r1, i1)
			d2[j] = complex(r2, i2)
			d3[j] = complex(r3, i3)
		}
	}
}

// PlanBlockMul returns the blocked-multiply kernel for problems expected
// to have the given number of output rows: the unrolled two-row plan for
// 2, the grouped four-row streamer for any multiple of four, the generic
// sixteen-column kernel otherwise, and the textbook loop when
// specialization is disabled (Table 4 "JIT gemm" off). Each specialized
// plan checks the shape at run time and falls back to MulBlockInto on a
// mismatch (tail groups, reconfigured cells).
func PlanBlockMul(useSpecialized bool, rows int) BlockKernel {
	switch {
	case !useSpecialized:
		return MulBlockIntoNaive
	case rows == 2:
		return mulBlockRows2
	case rows >= 4 && rows%4 == 0:
		return mulBlockRows4Group
	}
	return MulBlockInto
}
