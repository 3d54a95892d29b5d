package modulation

import "math"

// This file implements the batched (de)modulation APIs consumed by the
// blocked equalization/precoding path: one call covers a whole tile
// instead of paying a function call per constellation symbol.

// axisLLR computes the per-bit LLRs of one PAM coordinate: squared
// distances to all levels first, then a max-log min-scan per bit. The
// arithmetic (and hence the result) is identical to a per-bit exhaustive
// scan; only the d² computations are shared.
func (t *Table) axisLLR(dst []float32, x float32, invNoise float32, d2 *[16]float32) {
	b := len(dst)
	l := len(t.pam)
	for g := 0; g < l; g++ {
		d := x - t.pam[g]
		d2[g] = d * d
	}
	for k := 0; k < b; k++ {
		bitMask := 1 << (b - 1 - k)
		best0 := float32(math.Inf(1))
		best1 := float32(math.Inf(1))
		for g := 0; g < l; g++ {
			m := d2[g]
			if g&bitMask == 0 {
				if m < best0 {
					best0 = m
				}
			} else if m < best1 {
				best1 = m
			}
		}
		dst[k] = (best1 - best0) * invNoise
	}
}

// DemodulateSoftSoA computes max-log-MAP LLRs for a user-major tile of
// equalized symbols and writes them in subcarrier-major (SoA) order: the
// tile holds users×nsc symbols with user u's run of nsc subcarriers at
// tile[u*nsc : (u+1)*nsc] — exactly the output layout of mat.MulBlockInto
// — and dst receives, for each subcarrier j, all users' LLRs contiguously
// at dst[(j*users+u)*BitsPerSymbol : ...]. One call consumes the whole
// equalized tile in a single pass, so the fused equalize+demodulate block
// never revisits the tile per user. The per-symbol arithmetic is
// axisLLR's — run by the platform's vector kernel (kernel.go) over the
// whole groups of four columns where there is one, and by the Go loop over
// the rest — so each symbol's LLRs are bit-identical to DemodulateSoft's
// on every host.
// len(dst) must be >= users*nsc*BitsPerSymbol.
func (t *Table) DemodulateSoftSoA(dst []float32, tile []complex64, users, nsc int, noiseVar float32) {
	if len(tile) < users*nsc {
		panic("modulation: DemodulateSoftSoA tile too small")
	}
	if len(dst) < users*nsc*t.BitsPerSymbol() {
		panic("modulation: DemodulateSoftSoA dst too small")
	}
	if noiseVar <= 0 {
		noiseVar = 1e-6
	}
	inv := 1 / noiseVar
	if nsc == 1 {
		// One column of users is one row of columns: the same symbols in
		// the same dst order, in the shape that has column groups.
		users, nsc = 1, users
	}
	done := 0
	if simdSoA != nil && users > 0 && nsc >= 4 {
		simdSoA(t, dst, tile, users, nsc, inv)
		done = nsc &^ 3
	}
	t.soaColumns(dst, tile, users, nsc, done, inv)
}

// soaColumns is the Go SoA loop over columns [first, nsc) of the tile:
// the whole of DemodulateSoftSoA where there is no vector kernel, the
// columns past the last whole group of four where there is.
func (t *Table) soaColumns(dst []float32, tile []complex64, users, nsc, first int, inv float32) {
	b := t.BitsPerSymbol() / 2
	var d2 [16]float32
	o := first * users * 2 * b
	for j := first; j < nsc; j++ {
		for u := 0; u < users; u++ {
			v := tile[u*nsc+j]
			t.axisLLR(dst[o:o+b], real(v), inv, &d2)
			t.axisLLR(dst[o+b:o+2*b], imag(v), inv, &d2)
			o += 2 * b
		}
	}
}

// ModulateBlock maps the symbol range [first, first+len(dst)) of a user's
// coded bit stream to constellation points in one call: ModulateStrided
// at stride 1.
func (t *Table) ModulateBlock(dst []complex64, bits []byte, first int) {
	t.ModulateStrided(dst, 1, len(dst), bits, first)
}

// ModulateStrided maps the symbol range [first, first+count) of a user's
// coded bit stream to dst[0], dst[stride], …, dst[(count-1)*stride]. Bits
// beyond len(bits) are treated as zero, so the tail of a codeword and the
// padding subcarriers past it need no staging. The precoder modulates
// each user straight into its column of a subcarrier-major tile at stride
// K.
func (t *Table) ModulateStrided(dst []complex64, stride, count int, bits []byte, first int) {
	b := t.BitsPerSymbol()
	n := len(bits)
	for s := 0; s < count; s++ {
		off := (first + s) * b
		var sym int
		if off+b <= n {
			for k := 0; k < b; k++ {
				sym = sym<<1 | int(bits[off+k]&1)
			}
		} else {
			for k := 0; k < b; k++ {
				var v int
				if off+k < n {
					v = int(bits[off+k] & 1)
				}
				sym = sym<<1 | v
			}
		}
		dst[s*stride] = t.points[sym]
	}
}
