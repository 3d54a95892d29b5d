//go:build amd64 && !purego

#include "textflag.h"

// AVX2 max-log-MAP kernels for DemodulateSoftSoA (DESIGN §21). See
// demod_amd64.go for the contract; block.go's axisLLR is the Go loop
// these reproduce bit for bit.
//
// A YMM register holds eight PAM coordinates: four complex64 of one
// user's tile row, [re0 im0 re1 im1 | re2 im2 re3 im3]. Both axes use the
// same level table, so the arithmetic never tells re from im; only the
// final interleave does. Go assembler syntax lists operands in reverse of
// Intel's:
//   VSUBPS b, a, d     d = a - b
//   VMINPS b, a, d     d = a < b ? a : b       (b when either is NaN)
// d = x - pam[g] and d*d are two instructions — no FMA — because the Go
// compiler does not fuse on amd64 and one rounding less would change the
// low bit.
//
// axisLLR scans `if m < best { best = m }` from best = +Inf. A minimum is
// exact, so a tree of VMINPS over the same leaves returns the same bits
// in any association as long as no leaf is NaN. The leaves are NaN all
// together or not at all (only a NaN coordinate makes one), and then the
// scan leaves best at +Inf: SEED does that to the leaf every bit-0 subset
// contains (code 0) and the leaf every bit-1 subset contains (the
// all-ones code), and every VMINPS that consumes a seeded value takes it
// as the operand a NaN comparison falls through to (b above), so each
// root is +Inf exactly when the scan's would be. MIN names the operands
// in that order.

DATA demodInf<>+0(SB)/4, $0x7f800000
DATA demodInf<>+4(SB)/4, $0x7f800000
DATA demodInf<>+8(SB)/4, $0x7f800000
DATA demodInf<>+12(SB)/4, $0x7f800000
DATA demodInf<>+16(SB)/4, $0x7f800000
DATA demodInf<>+20(SB)/4, $0x7f800000
DATA demodInf<>+24(SB)/4, $0x7f800000
DATA demodInf<>+28(SB)/4, $0x7f800000
GLOBL demodInf<>(SB), RODATA|NOPTR, $32

// MIN(m, best, d): d = m < best ? m : best — one step of the Go scan.
#define MIN(m, best, d) VMINPS best, m, d

// SEED(y): y = min(y, +Inf) scanned from +Inf, i.e. +Inf where y is NaN.
#define SEED(y) VMINPS demodInf<>(SB), y, y

// SQDIST(lv, y): y = (x - lv)², x in Y15, lv a broadcast level.
#define SQDIST(lv, y) \
	VSUBPS lv, Y15, y; \
	VMULPS y, y, y

// LEVEL(g, y): y = (x - pam[g])², pam at BX.
#define LEVEL(g, y) \
	VBROADCASTSS (4*g)(BX), y; \
	SQDIST(y, y)

// Register use shared by the four kernels:
//   AX  dst of the current user's first symbol   SI  tile cursor
//   BX  pam                                      DI  dst cursor
//   CX  column groups left in the row            DX  user rows left
//   R8  bytes between subcarriers in dst (users·order·4), R9 = 3·R8
//   R10 column groups per row (nsc/4)
//   R11 bytes of a row's ungrouped columns ((nsc mod 4)·8), skipped
//   Y14 inv in every lane, Y15 the eight coordinates
// The four symbols of a group go to DI, DI+R8, DI+2·R8 and DI+R9.
#define SETUP(orderBytes) \
	MOVQ         dst+0(FP), AX; \
	MOVQ         tile+8(FP), SI; \
	MOVQ         users+16(FP), DX; \
	MOVQ         nsc+24(FP), R10; \
	MOVQ         pam+32(FP), BX; \
	VBROADCASTSS inv+40(FP), Y14; \
	MOVQ         DX, R8; \
	IMULQ        $orderBytes, R8; \
	LEAQ         (R8)(R8*2), R9; \
	MOVQ         R10, R11; \
	ANDQ         $3, R11; \
	SHLQ         $3, R11; \
	SHRQ         $2, R10

#define NEXTGROUP \
	ADDQ $32, SI; \
	LEAQ (DI)(R8*4), DI; \
	DECQ CX

#define NEXTUSER(orderBytes) \
	ADDQ R11, SI; \
	ADDQ $orderBytes, AX; \
	DECQ DX

// func demodSoAQPSKAVX2(dst *float32, tile *complex64, users, nsc int, pam *float32, inv float32)
//
// One bit per axis: best0 is code 0's distance, best1 code 1's, both
// seeded — from +Inf held in Y11, not SEED's memory operand: the loop is
// a dozen instructions and two more loads per vector cost it 15 %. The
// LLR register is already in dst order, two floats per symbol.
TEXT ·demodSoAQPSKAVX2(SB), NOSPLIT, $0-44
	SETUP(8)
	VBROADCASTSS (BX), Y12
	VBROADCASTSS 4(BX), Y13
	VMOVUPS      demodInf<>(SB), Y11

qpsk_user:
	MOVQ AX, DI
	MOVQ R10, CX

qpsk_group:
	VMOVUPS      (SI), Y15
	SQDIST(Y12, Y0)
	SQDIST(Y13, Y1)
	MIN(Y0, Y11, Y0)
	MIN(Y1, Y11, Y1)
	VSUBPS       Y0, Y1, Y0
	VMULPS       Y14, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMOVLPS      X0, (DI)
	VMOVHPS      X0, (DI)(R8*1)
	VMOVLPS      X1, (DI)(R8*2)
	VMOVHPS      X1, (DI)(R9*1)
	NEXTGROUP
	JNZ          qpsk_group
	NEXTUSER(8)
	JNZ          qpsk_user
	VZEROUPPER
	RET

// func demodSoA16AVX2(dst *float32, tile *complex64, users, nsc int, pam *float32, inv float32)
//
// Two bits per axis over four levels, held broadcast in Y10–Y13. Bit 0
// (mask 2) splits the codes {0,1}|{2,3}, bit 1 (mask 1) {0,2}|{1,3}:
// four VMINPS, nothing to share. Interleave: with a, b the two bits' LLR
// registers, VUNPCKLPS gives [a0 b0 a1 b1] per lane = symbols 0 and 2,
// VUNPCKHPS symbols 1 and 3.
TEXT ·demodSoA16AVX2(SB), NOSPLIT, $0-44
	SETUP(16)
	VBROADCASTSS (BX), Y10
	VBROADCASTSS 4(BX), Y11
	VBROADCASTSS 8(BX), Y12
	VBROADCASTSS 12(BX), Y13

q16_user:
	MOVQ AX, DI
	MOVQ R10, CX

q16_group:
	VMOVUPS      (SI), Y15
	SQDIST(Y10, Y0)
	SQDIST(Y11, Y1)
	SQDIST(Y12, Y2)
	SQDIST(Y13, Y3)
	SEED(Y0)
	SEED(Y3)
	MIN(Y1, Y0, Y4)
	MIN(Y2, Y3, Y5)
	VSUBPS       Y4, Y5, Y8
	MIN(Y2, Y0, Y4)
	MIN(Y1, Y3, Y5)
	VSUBPS       Y4, Y5, Y9
	VMULPS       Y14, Y8, Y8
	VMULPS       Y14, Y9, Y9
	VUNPCKLPS    Y9, Y8, Y0
	VUNPCKHPS    Y9, Y8, Y1
	VMOVUPS      X0, (DI)
	VMOVUPS      X1, (DI)(R8*1)
	VEXTRACTF128 $1, Y0, (DI)(R8*2)
	VEXTRACTF128 $1, Y1, (DI)(R9*1)
	NEXTGROUP
	JNZ          q16_group
	NEXTUSER(16)
	JNZ          q16_user
	VZEROUPPER
	RET

// func demodSoA64AVX2(dst *float32, tile *complex64, users, nsc int, pam *float32, inv float32)
//
// Three bits per axis over eight levels d0..d7 in Y0..Y7 (d0, d7 seeded).
// Bit 2 (mask 1) splits {0,2,4,6}|{1,3,5,7} and shares nothing: six
// VMINPS straight from the leaves. Bits 0 and 1 share the four pair
// minima m01 m23 m45 m67: bit 0 (mask 4) is {m01,m23}|{m45,m67}, bit 1
// (mask 2) {m01,m45}|{m23,m67}. 14 VMINPS and the two seeds, where the
// scan takes 24 compare-and-branch steps per coordinate.
//
// Interleave: a, b, c the three bits' LLR registers, per lane
// [a0 a1 a2 a3] with index 0/1 the re/im of one symbol and 2/3 of the
// next. A symbol's six floats are [a0 b0 c0 a1 | b1 c1]: the first four
// by two VSHUFPS through ca = [c0 c2 a1 a3], the last two are the high
// half of VUNPCKLPS(b, c); the lane's second symbol likewise from the
// VUNPCKHPS forms. Each symbol is stored as 16 + 8 bytes, so nothing is
// written past its 24.
TEXT ·demodSoA64AVX2(SB), NOSPLIT, $0-44
	SETUP(24)

q64_user:
	MOVQ AX, DI
	MOVQ R10, CX

q64_group:
	VMOVUPS      (SI), Y15
	LEVEL(0, Y0)
	LEVEL(1, Y1)
	LEVEL(2, Y2)
	LEVEL(3, Y3)
	LEVEL(4, Y4)
	LEVEL(5, Y5)
	LEVEL(6, Y6)
	LEVEL(7, Y7)
	SEED(Y0)
	SEED(Y7)

	// bit 2
	MIN(Y2, Y0, Y8)
	MIN(Y4, Y6, Y9)
	MIN(Y9, Y8, Y8)
	MIN(Y5, Y7, Y9)
	MIN(Y1, Y3, Y10)
	MIN(Y10, Y9, Y9)
	VSUBPS       Y8, Y9, Y10

	// pair minima, then bits 0 and 1
	MIN(Y1, Y0, Y0)
	MIN(Y2, Y3, Y2)
	MIN(Y4, Y5, Y4)
	MIN(Y6, Y7, Y6)
	MIN(Y2, Y0, Y8)
	MIN(Y4, Y6, Y9)
	VSUBPS       Y8, Y9, Y8
	MIN(Y4, Y0, Y0)
	MIN(Y2, Y6, Y6)
	VSUBPS       Y0, Y6, Y9

	VMULPS       Y14, Y8, Y8
	VMULPS       Y14, Y9, Y9
	VMULPS       Y14, Y10, Y10

	VUNPCKLPS    Y9, Y8, Y0
	VUNPCKHPS    Y9, Y8, Y1
	VUNPCKLPS    Y10, Y9, Y2
	VUNPCKHPS    Y10, Y9, Y3
	VSHUFPS      $0xD8, Y8, Y10, Y4
	VSHUFPS      $0x84, Y4, Y0, Y5
	VSHUFPS      $0xD4, Y4, Y1, Y6
	VMOVUPS      X5, (DI)
	VMOVHPS      X2, 16(DI)
	VMOVUPS      X6, (DI)(R8*1)
	VMOVHPS      X3, 16(DI)(R8*1)
	VEXTRACTF128 $1, Y2, X2
	VEXTRACTF128 $1, Y3, X3
	VEXTRACTF128 $1, Y5, (DI)(R8*2)
	VMOVHPS      X2, 16(DI)(R8*2)
	VEXTRACTF128 $1, Y6, (DI)(R9*1)
	VMOVHPS      X3, 16(DI)(R9*1)
	NEXTGROUP
	JNZ          q64_group
	NEXTUSER(24)
	JNZ          q64_user
	VZEROUPPER
	RET

// func demodSoA256AVX2(dst *float32, tile *complex64, users, nsc int, pam *float32, inv float32)
//
// Four bits per axis over sixteen levels, code g = g3g2g1g0, bit k's
// mask 8>>k. Two reductions share the work, 32 VMINPS and the two seeds
// against 64 scan steps:
//   C[g3g2g1] = min over g0,  A[g3g2] = min(C[..0], C[..1])
//       bit 0 = {A0,A1}|{A2,A3},  bit 1 = {A0,A2}|{A1,A3}
//   D[g2g1g0] = min over g3,  B[g1g0] = min(D[0..], D[1..])
//       bit 2 = {B0,B1}|{B2,B3},  bit 3 = {B0,B2}|{B1,B3}
// Sixteen distances do not fit beside their reductions, so the levels
// are taken in two halves: d0..d7 stay in Y0..Y7 and turn into D0..D7 as
// d8..d15 stream through Y10/Y11; A0..A3 collect in Y8, Y9, Y12, Y13.
//
// Interleave: a 4×4 transpose per lane of the four LLR registers gives
// [a0 b0 c0 d0] … [a3 b3 c3 d3]; a symbol's eight floats are rows 0|1
// (or 2|3) of one lane, joined by VPERM2F128.
TEXT ·demodSoA256AVX2(SB), NOSPLIT, $0-44
	SETUP(32)

q256_user:
	MOVQ AX, DI
	MOVQ R10, CX

q256_group:
	VMOVUPS    (SI), Y15
	LEVEL(0, Y0)
	LEVEL(1, Y1)
	LEVEL(2, Y2)
	LEVEL(3, Y3)
	LEVEL(4, Y4)
	LEVEL(5, Y5)
	LEVEL(6, Y6)
	LEVEL(7, Y7)
	SEED(Y0)

	// A0 = min d0..d3 (Y8), A1 = min d4..d7 (Y9)
	MIN(Y1, Y0, Y8)
	MIN(Y2, Y3, Y9)
	MIN(Y9, Y8, Y8)
	MIN(Y4, Y5, Y9)
	MIN(Y6, Y7, Y10)
	MIN(Y9, Y10, Y9)

	// d8..d11: D0..D3, A2 (Y12)
	LEVEL(8, Y10)
	LEVEL(9, Y11)
	MIN(Y10, Y0, Y0)
	MIN(Y11, Y1, Y1)
	MIN(Y10, Y11, Y12)
	LEVEL(10, Y10)
	LEVEL(11, Y11)
	MIN(Y10, Y2, Y2)
	MIN(Y11, Y3, Y3)
	MIN(Y10, Y11, Y10)
	MIN(Y12, Y10, Y12)

	// d12..d15: D4..D7, A3 (Y13)
	LEVEL(12, Y10)
	LEVEL(13, Y11)
	MIN(Y10, Y4, Y4)
	MIN(Y11, Y5, Y5)
	MIN(Y10, Y11, Y13)
	LEVEL(14, Y10)
	LEVEL(15, Y11)
	SEED(Y11)
	MIN(Y10, Y6, Y6)
	MIN(Y7, Y11, Y7)
	MIN(Y10, Y11, Y10)
	MIN(Y13, Y10, Y13)

	// bits 0 and 1 from A0..A3
	MIN(Y9, Y8, Y10)
	MIN(Y12, Y13, Y11)
	VSUBPS     Y10, Y11, Y10
	MIN(Y12, Y8, Y8)
	MIN(Y9, Y13, Y9)
	VSUBPS     Y8, Y9, Y11

	// B0..B3 (Y0..Y3), then bits 2 and 3
	MIN(Y4, Y0, Y0)
	MIN(Y1, Y5, Y1)
	MIN(Y2, Y6, Y2)
	MIN(Y3, Y7, Y3)
	MIN(Y1, Y0, Y4)
	MIN(Y2, Y3, Y5)
	VSUBPS     Y4, Y5, Y12
	MIN(Y2, Y0, Y4)
	MIN(Y1, Y3, Y5)
	VSUBPS     Y4, Y5, Y13

	VMULPS     Y14, Y10, Y10
	VMULPS     Y14, Y11, Y11
	VMULPS     Y14, Y12, Y12
	VMULPS     Y14, Y13, Y13

	VUNPCKLPS  Y11, Y10, Y0
	VUNPCKHPS  Y11, Y10, Y1
	VUNPCKLPS  Y13, Y12, Y2
	VUNPCKHPS  Y13, Y12, Y3
	VUNPCKLPD  Y2, Y0, Y4
	VUNPCKHPD  Y2, Y0, Y5
	VUNPCKLPD  Y3, Y1, Y6
	VUNPCKHPD  Y3, Y1, Y7
	VPERM2F128 $0x20, Y5, Y4, Y0
	VPERM2F128 $0x31, Y5, Y4, Y1
	VPERM2F128 $0x20, Y7, Y6, Y2
	VPERM2F128 $0x31, Y7, Y6, Y3
	VMOVUPS    Y0, (DI)
	VMOVUPS    Y2, (DI)(R8*1)
	VMOVUPS    Y1, (DI)(R8*2)
	VMOVUPS    Y3, (DI)(R9*1)
	NEXTGROUP
	JNZ        q256_group
	NEXTUSER(32)
	JNZ        q256_user
	VZEROUPPER
	RET
