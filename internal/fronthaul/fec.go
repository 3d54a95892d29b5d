package fronthaul

// Reed-Solomon FEC across a symbol's packet burst (DESIGN §15).
//
// One OFDM symbol leaves the radio as M data packets (one per antenna,
// payload = the packed 12-bit IQ bytes). The RRU appends P parity
// packets computed over those M payloads, carried in packets whose
// Header.Antenna is M..M+P-1. Any M of the M+P payloads reconstruct the
// burst, so up to P lost packets per symbol are survivable — the same
// shard-per-burst scheme kcp-go applies per FEC group.
//
// The code is a systematic Reed-Solomon over GF(2^8) (polynomial
// 0x11d). The encode matrix is the Cauchy matrix
//
//	C[i][a] = 1 / (x_i ^ y_a),  x_i = M+i, y_a = a
//
// whose every square submatrix is invertible, so any combination of
// ≤ P erasures is solvable from the parity rows that did arrive.
//
// Both ends are streaming: the sender folds each data payload into P
// parity accumulators as it emits it (AccumulateData), and the
// receiver folds arriving payloads into P syndrome accumulators the
// same way (AccumulateData for data shards, AccumulateParity for
// parity shards). Once nData+nParity ≥ M the missing payloads are
// recovered by solving the |lost|×|lost| system against the syndromes
// (Reconstruct) — no shard is ever buffered twice.

import (
	"crypto/subtle"
	"errors"
)

var (
	// ErrFECShards rejects impossible geometry at construction.
	ErrFECShards = errors.New("fronthaul: FEC needs 1 ≤ data, 1 ≤ parity, data+parity ≤ 256")
	// ErrFECInsufficient reports fewer surviving parity rows than erasures.
	ErrFECInsufficient = errors.New("fronthaul: not enough parity shards to reconstruct")
)

// GF(2^8) tables, generated once at init. gfMulTab is the full 64 KiB
// product table: mulSliceXorGo's byte loop, the Go reference of the
// vector kernels, indexes it once per byte, and on amd64 the vector
// kernels' nibble tables are built from it (gf_amd64.go).
var (
	gfExp    [510]byte
	gfLog    [256]byte
	gfInv    [256]byte
	gfMulTab [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 510; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for a := 1; a < 256; a++ {
		gfInv[a] = gfExp[255-int(gfLog[a])]
		row := &gfMulTab[a]
		la := int(gfLog[a])
		for b := 1; b < 256; b++ {
			row[b] = gfExp[la+int(gfLog[b])]
		}
	}
}

func gfMul(a, b byte) byte { return gfMulTab[a][b] }

// simdMulXor and simdMulXor2 are the platform's vector implementations
// of mulSliceXor and mulSliceXor2 over equal-length slices whose length
// is a positive multiple of 32, nil where the build has none or the
// CPU/OS cannot run it. They are set once at package init and afterwards
// only flipped by tests (forceGoKernels).
var (
	simdMulXor  func(dst, src []byte, c byte)
	simdMulXor2 func(dst0, dst1, src []byte, c0, c1 byte)
)

// Kernel reports which kernel the FEC multiply-XOR folds run in this
// process: "avx2" or "generic" (the byte-table loop).
func Kernel() string {
	if simdMulXor != nil {
		return "avx2"
	}
	return "generic"
}

// mulSliceXor folds dst[i] ^= c·src[i] over the shorter of the two
// slices. c == 0 is a no-op; c == 1 is a plain XOR.
func mulSliceXor(dst, src []byte, c byte) {
	n := min(len(dst), len(src))
	dst, src = dst[:n], src[:n]
	switch c {
	case 0:
		return
	case 1:
		subtle.XORBytes(dst, dst, src)
		return
	}
	if v := n &^ 31; v > 0 && simdMulXor != nil {
		simdMulXor(dst[:v], src[:v], c)
		dst, src = dst[v:], src[v:]
	}
	mulSliceXorGo(dst, src, c)
}

// mulSliceXor2 is mulSliceXor into two rows at once, reading src once
// per pair: dst0 ^= c0·src and dst1 ^= c1·src. Neither row may overlap
// src.
func mulSliceXor2(dst0, dst1, src []byte, c0, c1 byte) {
	if c0 <= 1 || c1 <= 1 || simdMulXor2 == nil {
		mulSliceXor(dst0, src, c0)
		mulSliceXor(dst1, src, c1)
		return
	}
	v := min(len(dst0), len(dst1), len(src)) &^ 31
	if v > 0 {
		simdMulXor2(dst0[:v], dst1[:v], src[:v], c0, c1)
	}
	mulSliceXor(dst0[v:], src[v:], c0)
	mulSliceXor(dst1[v:], src[v:], c1)
}

// mulSliceXorGo is the byte-table loop, dst[i] ^= c·src[i] for i <
// len(src) (dst at least as long): the Go reference the vector kernels
// are tested against, the whole fold where the build has none, and
// their tail.
func mulSliceXorGo(dst, src []byte, c byte) {
	row := &gfMulTab[c]
	dst = dst[:len(src)]
	for i, s := range src {
		dst[i] ^= row[s]
	}
}

// mulRowsXor folds src into len(c) rows, rows[k] ^= c[k]·src, two rows
// per pass so that src is read once per pair.
func mulRowsXor(rows [][]byte, src, c []byte) {
	k := 0
	for ; k+1 < len(c); k += 2 {
		mulSliceXor2(rows[k], rows[k+1], src, c[k], c[k+1])
	}
	if k < len(c) {
		mulSliceXor(rows[k], src, c[k])
	}
}

// FEC encodes/decodes one symbol burst: m data shards, p parity shards.
// A FEC value is stateless and safe for concurrent use; the caller owns
// the accumulator slices (one set per in-flight symbol).
type FEC struct {
	m, p int
	coef [][]byte // [m][p]: coef[a][i] = C[i][a], data shard a's weight in parity row i
}

// NewFEC builds the Cauchy encode matrix for m data and p parity
// shards. m+p must fit in GF(256).
func NewFEC(m, p int) (*FEC, error) {
	if m < 1 || p < 1 || m+p > 256 {
		return nil, ErrFECShards
	}
	f := &FEC{m: m, p: p, coef: make([][]byte, m)}
	for a := range f.coef {
		f.coef[a] = make([]byte, p)
		for i := range f.coef[a] {
			f.coef[a][i] = gfInv[byte(m+i)^byte(a)]
		}
	}
	return f, nil
}

// ParityShards returns p.
func (f *FEC) ParityShards() int { return f.p }

// fixedLost is the most erasures Reconstruct solves without allocating.
const fixedLost = 8

// AccumulateData folds data shard `shard` into every accumulator row:
// acc[i] ^= coef[shard][i]·payload, two rows per pass. The sender uses
// this to build parity; the receiver uses it to build syndromes.
func (f *FEC) AccumulateData(acc [][]byte, shard int, payload []byte) {
	mulRowsXor(acc[:f.p], payload, f.coef[shard])
}

// AccumulateParity folds a received parity shard into its syndrome row:
// acc[parity] ^= payload. After all received shards are folded,
// acc[i] = parity_i ^ Σ_{received j} coef[j][i]·d_j, i.e. exactly
// Σ_{lost j} coef[j][i]·d_j for rows whose parity arrived.
func (f *FEC) AccumulateParity(acc [][]byte, parity int, payload []byte) {
	mulSliceXor(acc[parity], payload, 1)
}

// Reconstruct solves for the lost data shards. lost lists the missing
// data-shard indices, rows the parity rows whose packets arrived (both
// ascending), acc the syndrome accumulators (only rows in `rows` are
// read; acc is not modified). The recovered payload for lost[c] is
// written into dst[c], which must be payload-sized. Requires
// len(rows) ≥ len(lost).
func (f *FEC) Reconstruct(dst [][]byte, lost, rows []int, acc [][]byte) error {
	n := len(lost)
	if n == 0 {
		return nil
	}
	if len(rows) < n {
		return ErrFECInsufficient
	}
	rows = rows[:n]
	// The lost payloads x solve A·x = b, A[r][c] = coef[lost[c]][rows[r]]
	// and b_r = acc[rows[r]]. Invert the transpose T = Aᵀ by Gauss-Jordan
	// on the augmented [T | I]: row r of T⁻¹ = (A⁻¹)ᵀ holds b_r's
	// coefficient in every x_c, which is the order the folds below read.
	// n ≤ p is tiny, so the O(n³) byte work is noise next to the
	// O(n²·len) payload folds. Up to fixedLost erasures the two matrices
	// live on the stack, so a rebuilt burst allocates nothing.
	var aFix, invFix [fixedLost * fixedLost]byte
	a, inv := aFix[:], invFix[:]
	if n > fixedLost {
		a, inv = make([]byte, n*n), make([]byte, n*n)
	}
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			a[c*n+r] = f.coef[lost[c]][rows[r]]
		}
		inv[c*n+c] = 1
	}
	for col := 0; col < n; col++ {
		piv := -1
		for r := col; r < n; r++ {
			if a[r*n+col] != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return ErrFECInsufficient // unreachable for Cauchy submatrices
		}
		if piv != col {
			for c := 0; c < n; c++ {
				a[piv*n+c], a[col*n+c] = a[col*n+c], a[piv*n+c]
				inv[piv*n+c], inv[col*n+c] = inv[col*n+c], inv[piv*n+c]
			}
		}
		d := gfInv[a[col*n+col]]
		for c := 0; c < n; c++ {
			a[col*n+c] = gfMul(a[col*n+c], d)
			inv[col*n+c] = gfMul(inv[col*n+c], d)
		}
		for r := 0; r < n; r++ {
			if r == col || a[r*n+col] == 0 {
				continue
			}
			m := a[r*n+col]
			for c := 0; c < n; c++ {
				a[r*n+c] ^= gfMul(m, a[col*n+c])
				inv[r*n+c] ^= gfMul(m, inv[col*n+c])
			}
		}
	}
	// x_c = Σ_r inv[r][c]·b_r: each syndrome row is read once and folded
	// into every x_c, two at a time. Writing into the caller's dst keeps
	// each recovered payload in the buffer that owns that antenna slot —
	// no post-hoc row permutation.
	dst = dst[:n]
	for _, d := range dst {
		clear(d)
	}
	for r := 0; r < n; r++ {
		mulRowsXor(dst, acc[rows[r]], inv[r*n:(r+1)*n])
	}
	return nil
}

// EncodeInto computes all parity shards for a complete burst in one
// call: parity[i] = Σ_j coef[j][i]·data[j]. Convenience for tests and
// non-streaming senders; the hot path uses AccumulateData per packet.
func (f *FEC) EncodeInto(parity, data [][]byte) {
	for i := 0; i < f.p; i++ {
		p := parity[i]
		for k := range p {
			p[k] = 0
		}
	}
	for j := 0; j < f.m && j < len(data); j++ {
		f.AccumulateData(parity, j, data[j])
	}
}
