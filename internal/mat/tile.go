package mat

import "fmt"

// Tile kernels: the equalizer's multiply on the engine's post-FFT uplink
// grid as it is stored (DESIGN §9, Layouts). The grid is cut into tiles
// of TileCols consecutive subcarriers; tile t holds, antenna by antenna,
// that antenna's TileCols samples — one 64-byte line per antenna, written
// by that antenna's FFT task alone. Within a tile, the sample of antenna c
// on the tile's subcarrier j is y[c*TileCols + j]. A strip of n ≤
// TileCols subcarriers starting at lane c0 of a tile is the view
// y = tile[c0:], and the equalizer computes, for dst K×n and w K×M,
//
//	dst = w · Y        i.e.  dst[i][j] = Σ_c w[i][c]·y[c*TileCols + j],
//
// reading the strip in place. That is MulBlockInto(dst, w, yt) with yt
// the n×M transpose of the strip — the same products summed over
// ascending c in the same order — so the specialized plan returns exactly
// MulBlockInto's bits on the transposed strip, and the textbook loop
// MulBlockIntoNaive's.

// TileCols is the number of subcarriers per grid tile: one 64-byte line
// of complex64 samples per antenna.
const TileCols = 8

// TileKernel is a tile multiply with the dst = w·Y contract above.
// len(y) must be at least (w.Cols-1)·TileCols + dst.Cols.
type TileKernel func(dst, w *M, y []complex64)

func checkTileShapes(dst, w *M, y []complex64) {
	if dst.Rows != w.Rows || dst.Cols < 1 || dst.Cols > TileCols || w.Cols < 1 ||
		len(y) < (w.Cols-1)*TileCols+dst.Cols {
		panic(fmt.Sprintf("mat: tile shapes %dx%d * tile(%d samples) -> %dx%d",
			w.Rows, w.Cols, len(y), dst.Rows, dst.Cols))
	}
}

// simdTile4 is the platform's vector implementation of mulTileRows4's
// loop over one group of four output rows and the whole groups of four
// columns (m >= 1, n >= 4, dst row stride n), nil where the build has
// none or the CPU/OS cannot run it. It is set at package init together
// with simdRows4 and flipped with it by tests (forceGoKernels).
var simdTile4 func(dst, w, y *complex64, m, n int)

// mulTileGo is the Go tile loop over output rows [r0, r1) and columns
// [j0, dst.Cols), two rows per pass so each tile sample is loaded once per
// pair: the whole multiply on builds without a vector kernel, and where
// there is one, the rows past the last group of four (all of them at
// K = 2) and the columns past the last group of four.
func mulTileGo(dst, w *M, y []complex64, r0, r1, j0 int) {
	n := dst.Cols
	r := r0
	for ; r+1 < r1; r += 2 {
		w0, w1 := w.Row(r), w.Row(r+1)
		d0, d1 := dst.Row(r), dst.Row(r+1)
		for j := j0; j < n; j++ {
			var re0, im0, re1, im1 float32
			for c, a := range w0 {
				v := y[c*TileCols+j]
				vr, vi := real(v), imag(v)
				re0 += real(a)*vr - imag(a)*vi
				im0 += real(a)*vi + imag(a)*vr
				a = w1[c]
				re1 += real(a)*vr - imag(a)*vi
				im1 += real(a)*vi + imag(a)*vr
			}
			d0[j] = complex(re0, im0)
			d1[j] = complex(re1, im1)
		}
	}
	if r < r1 {
		wr, dr := w.Row(r), dst.Row(r)
		for j := j0; j < n; j++ {
			var re, im float32
			for c, a := range wr {
				v := y[c*TileCols+j]
				re += real(a)*real(v) - imag(a)*imag(v)
				im += real(a)*imag(v) + imag(a)*real(v)
			}
			dr[j] = complex(re, im)
		}
	}
}

// mulTileRows4 is the specialized tile plan: where simdTile4 is set, it
// covers each group of four output rows over the whole groups of four
// columns and the Go loop drains that group's last dst.Cols mod 4; the
// Go loop takes the rows past the last group of four, and everything on
// builds without a vector kernel.
func mulTileRows4(dst, w *M, y []complex64) {
	checkTileShapes(dst, w, y)
	n := dst.Cols
	r := 0
	if simdTile4 != nil && n >= 4 {
		_ = y[(w.Cols-1)*TileCols+n-1] // the kernel reads the strip unchecked
		for ; r+4 <= w.Rows; r += 4 {
			simdTile4(&dst.Row(r)[0], &w.Row(r)[0], &y[0], w.Cols, n)
			mulTileGo(dst, w, y, r, r+4, n&^3)
		}
	}
	mulTileGo(dst, w, y, r, w.Rows, 0)
}

// mulTileNaive is the textbook loop nest on the tile with a scalar
// complex accumulator: the "JIT disabled" baseline (Table 4).
func mulTileNaive(dst, w *M, y []complex64) {
	checkTileShapes(dst, w, y)
	for i := 0; i < w.Rows; i++ {
		wr := w.Row(i)
		drow := dst.Row(i)
		for j := 0; j < dst.Cols; j++ {
			var s complex64
			for c := range wr {
				s += wr[c] * y[c*TileCols+j]
			}
			drow[j] = s
		}
	}
}

// PlanTileMul returns the tile multiply: the specialized plan
// (mulTileRows4: the vector kernel on each group of four output rows
// where there is one, the Go loop elsewhere), or the textbook loop when
// specialization is disabled (Table 4 "JIT gemm" off). Both take any
// row count.
func PlanTileMul(useSpecialized bool) TileKernel {
	if !useSpecialized {
		return mulTileNaive
	}
	return mulTileRows4
}
