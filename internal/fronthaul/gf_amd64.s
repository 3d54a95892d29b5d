//go:build amd64 && !purego

#include "textflag.h"

// AVX2 GF(2^8) multiply-XOR kernels for mulSliceXor and mulSliceXor2
// (DESIGN §15). See gf_amd64.go for the contracts; fec.go's
// mulSliceXorGo is the byte-table loop these reproduce bit for bit.
//
// Multiplying by a constant c is linear over GF(2), so
//   c·x = c·(x & 0x0f) ^ c·(x & 0xf0)
// and a coefficient's two 16-entry nibble tables (gfNib[c]: c·i, then
// c·(i<<4)) give the product of 32 bytes with two VPSHUFB lookups.
// VBROADCASTI128 repeats each table in both 128-bit lanes, since VPSHUFB
// looks up within a lane; every index has bit 7 clear after the nibble
// mask, so no byte is zeroed. Go assembler syntax lists operands in
// reverse of Intel's:
//   VPSHUFB idx, table, d     d[i] = table[idx[i] & 15] within each lane
//
// Register use: AX, BX the tables; DI, DX the destinations; SI src;
// CX 32-byte groups left; Y7 the nibble mask 0x0f in every byte.

// NIBBLES(x, lo, hi): lo and hi = the low and high nibbles of x's bytes.
#define NIBBLES(x, lo, hi) \
	VPSRLQ $4, x, hi; \
	VPAND  Y7, x, lo; \
	VPAND  Y7, hi, hi

// FOLD(lo, hi, tlo, thi, p, q, d): (d) ^= the product looked up from the
// nibbles lo and hi in tables tlo and thi; p and q are scratch.
#define FOLD(lo, hi, tlo, thi, p, q, d) \
	VPSHUFB lo, tlo, p; \
	VPSHUFB hi, thi, q; \
	VPXOR   q, p, p; \
	VPXOR   (d), p, p; \
	VMOVDQU p, (d)

// MASK: Y7 = 0x0f in every byte. VMOVQ, not the legacy-SSE MOVQ: a
// legacy-SSE instruction while the caller's upper YMM halves are dirty
// made the whole loop run 3× slower on a Xeon VM.
#define MASK \
	MOVQ         $0x0f, R8; \
	VMOVQ        R8, X7; \
	VPBROADCASTB X7, Y7

// func gfMulXorAVX2(tab *[32]byte, dst, src *byte, n int)
TEXT ·gfMulXorAVX2(SB), NOSPLIT, $0-32
	MOVQ tab+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	SHRQ $5, CX
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	MASK

loop1:
	VMOVDQU (SI), Y4
	NIBBLES(Y4, Y4, Y5)
	FOLD(Y4, Y5, Y0, Y1, Y8, Y9, DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop1
	VZEROUPPER
	RET

// func gfMulXor2AVX2(tab0, tab1 *[32]byte, dst0, dst1, src *byte, n int)
TEXT ·gfMulXor2AVX2(SB), NOSPLIT, $0-48
	MOVQ tab0+0(FP), AX
	MOVQ tab1+8(FP), BX
	MOVQ dst0+16(FP), DI
	MOVQ dst1+24(FP), DX
	MOVQ src+32(FP), SI
	MOVQ n+40(FP), CX
	SHRQ $5, CX
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	VBROADCASTI128 (BX), Y2
	VBROADCASTI128 16(BX), Y3
	MASK

loop2:
	VMOVDQU (SI), Y4
	NIBBLES(Y4, Y4, Y5)
	FOLD(Y4, Y5, Y0, Y1, Y8, Y9, DI)
	FOLD(Y4, Y5, Y2, Y3, Y10, Y11, DX)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ CX
	JNZ  loop2
	VZEROUPPER
	RET
