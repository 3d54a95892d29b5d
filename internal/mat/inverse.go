package mat

import (
	"errors"
	"math"
)

// ErrSingular is returned when a matrix is numerically singular.
var ErrSingular = errors.New("mat: singular matrix")

// invertScratch writes a⁻¹ into dst (both n×n) using Gauss–Jordan
// elimination with partial pivoting over caller-provided scratch
// (len >= 2n²): the allocation-free fallback ZFEqualizerInto takes through
// its workspace when the Cholesky factorization fails. The elimination
// runs in complex128 for stability; the matrices involved are small (K×K
// with K ≤ 64) so the cost is negligible next to the rest of the
// zero-forcing task.
func invertScratch(dst, a *M, w []complex128) error {
	n := a.Rows
	// Augmented [A | I] in complex128 scratch.
	w = w[:n*2*n]
	for i := range w {
		w[i] = 0
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w[i*2*n+j] = complex128(a.At(i, j))
		}
		w[i*2*n+n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in column.
		piv, pmag := col, 0.0
		for r := col; r < n; r++ {
			v := w[r*2*n+col]
			if m := math.Hypot(real(v), imag(v)); m > pmag {
				piv, pmag = r, m
			}
		}
		if pmag < 1e-30 {
			return ErrSingular
		}
		if piv != col {
			pr := w[piv*2*n : (piv+1)*2*n]
			cr := w[col*2*n : (col+1)*2*n]
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
		}
		crow := w[col*2*n : (col+1)*2*n]
		inv := 1 / crow[col]
		for j := col; j < 2*n; j++ {
			crow[j] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			rrow := w[r*2*n : (r+1)*2*n]
			f := rrow[col]
			if f == 0 {
				continue
			}
			for j := col; j < 2*n; j++ {
				rrow[j] -= f * crow[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dst.Set(i, j, complex64(w[i*2*n+n+j]))
		}
	}
	return nil
}

// ZFWorkspace holds the scratch for repeated zero-forcing computations so
// the per-subcarrier-group ZF task allocates nothing after setup.
type ZFWorkspace struct {
	gram, gramInv, chol *M
	inv                 []complex128 // Gauss–Jordan augmented scratch (2K²)
	norms               []float64    // per-user channel column power (MRC)
	eqTmp               *M           // K×M equalizer staging for the precoder,
	// sized lazily on first ZFPrecoderInto (the workspace is built
	// knowing only K)

	// Clusters selects decentralized Gram formation: antennas are
	// partitioned into this many clusters, each computing a partial
	// H_cᴴH_c with a central reduce (core.Options.ZFClusters). 0 or 1
	// keeps the monolithic single-pass Gram.
	Clusters int
	gramPart *M // per-cluster partial Gram scratch, lazily sized
}

// NewZFWorkspace sizes the workspace for K users.
func NewZFWorkspace(k int) *ZFWorkspace {
	return &ZFWorkspace{
		gram: New(k, k), gramInv: New(k, k), chol: New(k, k),
		inv:   make([]complex128, k*2*k),
		norms: make([]float64, k),
	}
}

// ZFEqualizerInto computes the zero-forcing receive equalizer
// W = (HᴴH)⁻¹Hᴴ for an M×K channel H, writing the K×M result into dst.
// This is the paper's fast path (§4.2): factor only the small K×K Gram
// matrix instead of a full SVD pseudo-inverse. The Gram matrix is
// Hermitian positive definite for full-rank H, so a Cholesky
// solve (what MKL picks for such systems) does the job with no explicit
// inverse and no final multiply; Gauss–Jordan remains the fallback for
// borderline-rank estimates.
func ZFEqualizerInto(dst, h *M, ws *ZFWorkspace) error {
	k := h.Cols
	if dst.Rows != k || dst.Cols != h.Rows {
		panic("mat: ZFEqualizerInto shape mismatch")
	}
	if ws.Clusters > 1 {
		if ws.gramPart == nil || ws.gramPart.Rows != k || ws.gramPart.Cols != k {
			ws.gramPart = New(k, k) // one-time; every later call reuses it
		}
		GramClusteredInto(ws.gram, ws.gramPart, h, ws.Clusters)
	} else {
		GramInto(ws.gram, h)
	}
	if CholeskyInto(ws.chol, ws.gram) {
		// Solve (HᴴH)·W = Hᴴ in place: dst starts as Hᴴ.
		h.ConjTransposeInto(dst)
		CholeskySolveInPlace(ws.chol, dst)
		return nil
	}
	if err := invertScratch(ws.gramInv, ws.gram, ws.inv); err != nil {
		return err
	}
	// dst = gramInv (K×K) * Hᴴ (K×M): compute as (gramInv * Hᴴ) without
	// materializing Hᴴ: dst[i][m] = sum_j gramInv[i][j] * conj(h[m][j]).
	mRows := h.Rows
	for i := 0; i < k; i++ {
		gi := ws.gramInv.Row(i)
		drow := dst.Row(i)
		for m := 0; m < mRows; m++ {
			hrow := h.Row(m)
			var sR, sI float32
			for j, g := range gi {
				hc := hrow[j]
				gr, gim := real(g), imag(g)
				hr, hi := real(hc), -imag(hc)
				sR += gr*hr - gim*hi
				sI += gr*hi + gim*hr
			}
			drow[m] = complex(sR, sI)
		}
	}
	return nil
}

// ZFPrecoderInto computes the zero-forcing transmit precoder
// W = c·H*(HᵀH*)⁻¹ for an M×K uplink channel, writing the M×K result into
// dst. Under TDD reciprocity the downlink channel is Hᵀ, so HᵀW = c·I and
// users see no inter-user interference. Mathematically W equals the plain
// (unconjugated) transpose of the ZF equalizer, which is how it is
// computed here. c normalizes so that no antenna exceeds unit power.
func ZFPrecoderInto(dst, h *M, ws *ZFWorkspace) error {
	k := h.Cols
	m := h.Rows
	if dst.Rows != m || dst.Cols != k {
		panic("mat: ZFPrecoderInto shape mismatch")
	}
	if ws.eqTmp == nil || ws.eqTmp.Rows != k || ws.eqTmp.Cols != m {
		ws.eqTmp = New(k, m) // one-time; every later call reuses it
	}
	eq := ws.eqTmp
	if err := ZFEqualizerInto(eq, h, ws); err != nil {
		return err
	}
	var maxRow float64
	for r := 0; r < m; r++ {
		var e float64
		for c := 0; c < k; c++ {
			v := eq.At(c, r)
			e += float64(real(v))*float64(real(v)) + float64(imag(v))*float64(imag(v))
			dst.Set(r, c, v)
		}
		if e > maxRow {
			maxRow = e
		}
	}
	if maxRow > 0 {
		s := float32(1 / math.Sqrt(maxRow))
		for i := range dst.Data {
			dst.Data[i] = complex(real(dst.Data[i])*s, imag(dst.Data[i])*s)
		}
	}
	return nil
}

// ConjugateEqualizerIntoWS computes the maximum-ratio-combining
// (conjugate) equalizer W = D⁻¹Hᴴ where D = diag(‖h_k‖²), the
// lower-overhead alternative the paper cites for ill-conditioned
// channels (§4.2), over workspace scratch: the engine's ZF task falls
// back to it when the channel estimate is singular. A user column of
// zero norm gets an all-zero row.
func ConjugateEqualizerIntoWS(dst, h *M, ws *ZFWorkspace) {
	k := h.Cols
	m := h.Rows
	if dst.Rows != k || dst.Cols != m {
		panic("mat: ConjugateEqualizerIntoWS shape mismatch")
	}
	norms := ws.norms[:k]
	for i := range norms {
		norms[i] = 0
	}
	for r := 0; r < m; r++ {
		row := h.Row(r)
		for c, v := range row {
			norms[c] += float64(real(v))*float64(real(v)) + float64(imag(v))*float64(imag(v))
		}
	}
	for c := 0; c < k; c++ {
		inv := float32(0)
		if norms[c] > 0 {
			inv = float32(1 / norms[c])
		}
		drow := dst.Row(c)
		for r := 0; r < m; r++ {
			v := h.At(r, c)
			drow[r] = complex(real(v)*inv, -imag(v)*inv)
		}
	}
}
