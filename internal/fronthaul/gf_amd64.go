//go:build amd64 && !purego

package fronthaul

import "repro/internal/cpu"

// AVX2 GF(2^8) multiply-XOR (DESIGN §15): the amd64 implementation of
// mulSliceXor's and mulSliceXor2's whole 32-byte groups, two VPSHUFB
// nibble lookups per 32 bytes instead of 32 byte-table loads.

// gfNib holds each coefficient's two nibble tables, built from gfMulTab:
// gfNib[c][i] = c·i and gfNib[c][16+i] = c·(i<<4) for i < 16. One
// global 8 KiB table serves every FEC geometry and Reconstruct's inverse
// coefficients alike, so a FEC value stays stateless.
var gfNib [256][32]byte

// init runs after fec.go's, which fills gfMulTab: a package's files
// initialize in file-name order.
func init() {
	if !cpu.HasAVX2() {
		return
	}
	for c := range gfNib {
		for i := 0; i < 16; i++ {
			gfNib[c][i] = gfMulTab[c][i]
			gfNib[c][16+i] = gfMulTab[c][i<<4]
		}
	}
	simdMulXor, simdMulXor2 = mulXorAVX2, mulXor2AVX2
}

func mulXorAVX2(dst, src []byte, c byte) {
	gfMulXorAVX2(&gfNib[c], &dst[0], &src[0], len(src))
}

func mulXor2AVX2(dst0, dst1, src []byte, c0, c1 byte) {
	gfMulXor2AVX2(&gfNib[c0], &gfNib[c1], &dst0[0], &dst1[0], &src[0], len(src))
}

// gfMulXorAVX2 folds dst[i] ^= c·src[i] for i < n, tab = &gfNib[c]. n
// must be a positive multiple of 32, the caller's to guarantee.
//
//go:noescape
func gfMulXorAVX2(tab *[32]byte, dst, src *byte, n int)

// gfMulXor2AVX2 is gfMulXorAVX2 into two destinations at once, reading
// each 32 bytes of src once: dst0 with tab0's coefficient, dst1 with
// tab1's. The destinations must not overlap src.
//
//go:noescape
func gfMulXor2AVX2(tab0, tab1 *[32]byte, dst0, dst1, src *byte, n int)
