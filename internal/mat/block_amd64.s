//go:build amd64 && !purego

#include "textflag.h"

// AVX2 four-row tiles for mulBlockRows4Group and mulTileRows4 (DESIGN
// §9). See block_amd64.go for the contracts; block.go's
// mulBlockRows4Group and tile.go's mulTileGo are the Go loops these
// reproduce bit for bit.
//
// One YMM accumulator per subcarrier j holds the four output rows of the
// group, re and im interleaved: [r0 i0 r1 i1 | r2 i2 r3 i3]. For each
// inner index m the four beamweights form W = [w0 w1 | w2 w3] and
// Wswap = W with re and im exchanged. With v = yt[j][m]:
//   P = W·v.re      = [wre·vr  wim·vr  ...]
//   Q = Wswap·v.im  = [wim·vi  wre·vi  ...]
//   VADDSUBPS Q, P  = [wre·vr - wim·vi   wim·vr + wre·vi  ...]
// The even lanes are the Go loop's real term operand for operand; the odd
// lanes are its imaginary term with the two products swapped, which IEEE
// addition does not notice (only a NaN's payload or sign can tell). Each
// accumulator then adds the term, over ascending m, as the Go loop does.
// Every product and sum is its own instruction — no FMA — because the Go
// compiler does not fuse on amd64 and one rounding less would change the
// low bit. Go assembler syntax lists operands in reverse of Intel's:
//   VADDSUBPS b, a, d     d = (a.re - b.re, a.im + b.im) per complex
//
// Register use:
//   DI  dst of the current column group (row 0)   R10 dst row stride (b·8)
//   SI  w row 0                                   R11 3·R10
//   DX  yt row of the current column group        R8  w and yt row stride (m·8)
//   AX  w row 0 at m, BX yt row j at m            R9  3·R8
//   CX  inner indices left, R12 column groups left
//   Y0 W, Y1 Wswap, Y4–Y7 the accumulators of subcarriers j…j+3

// TERM(re, im, p, q, acc): acc += the complex product of W with the yt
// element whose parts are at re and im; p and q are scratch.
#define TERM(re, im, p, q, acc) \
	VBROADCASTSS re, p; \
	VBROADCASTSS im, q; \
	VMULPS       Y0, p, p; \
	VMULPS       Y1, q, q; \
	VADDSUBPS    q, p, p; \
	VADDPS       p, acc, acc

// LOADW: Y0 = W, the four rows' beamweights at AX (row stride R8, 3·R8
// in R9), and Y1 = Wswap.
#define LOADW \
	VMOVSD      (AX), X0; \
	VMOVHPS     (AX)(R8*1), X0, X0; \
	VMOVSD      (AX)(R8*2), X1; \
	VMOVHPS     (AX)(R9*1), X1, X1; \
	VINSERTF128 $1, X1, Y0, Y0; \
	VPERMILPS   $0xB1, Y0, Y1

// STORE4 transposes the 4×4 complex tile in Y4–Y7 so that each dst row
// is one store of its four columns at DI (row stride R10, 3·R10 in R11):
// Y8 = [j.r0 j+1.r0 | j.r2 j+1.r2], Y9 the r1/r3 pairs, Y10 and Y11 the
// same for j+2 and j+3, then the 128-bit halves pair up.
#define STORE4 \
	VUNPCKLPD  Y5, Y4, Y8; \
	VUNPCKHPD  Y5, Y4, Y9; \
	VUNPCKLPD  Y7, Y6, Y10; \
	VUNPCKHPD  Y7, Y6, Y11; \
	VPERM2F128 $0x20, Y10, Y8, Y12; \
	VPERM2F128 $0x20, Y11, Y9, Y13; \
	VPERM2F128 $0x31, Y10, Y8, Y14; \
	VPERM2F128 $0x31, Y11, Y9, Y15; \
	VMOVUPS    Y12, (DI); \
	VMOVUPS    Y13, (DI)(R10*1); \
	VMOVUPS    Y14, (DI)(R10*2); \
	VMOVUPS    Y15, (DI)(R11*1)

// func mulRows4AVX2(dst, w, yt *complex64, m, b int)
TEXT ·mulRows4AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ yt+16(FP), DX
	MOVQ m+24(FP), R13
	MOVQ b+32(FP), R12
	MOVQ R13, R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ R12, R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	SHRQ $2, R12

group:
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   R13, CX

inner:
	LOADW
	TERM((BX), 4(BX), Y8, Y9, Y4)
	TERM((BX)(R8*1), 4(BX)(R8*1), Y10, Y11, Y5)
	TERM((BX)(R8*2), 4(BX)(R8*2), Y12, Y13, Y6)
	TERM((BX)(R9*1), 4(BX)(R9*1), Y14, Y15, Y7)
	ADDQ        $8, AX
	ADDQ        $8, BX
	DECQ        CX
	JNZ         inner

	STORE4

	ADDQ $32, DI
	LEAQ (DX)(R8*4), DX
	DECQ R12
	JNZ  group

	VZEROUPPER
	RET

// func mulTile4AVX2(dst, w, y *complex64, m, n int)
//
// The same tile on the uplink grid's layout (mat's tile.go): the four
// subcarriers of a column group are adjacent in y (stride 8 bytes) and
// the inner index steps one antenna line (64 bytes). Registers as in
// mulRows4AVX2, with DX/BX walking y and R10 the dst row stride n·8.
TEXT ·mulTile4AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ m+24(FP), R13
	MOVQ n+32(FP), R12
	MOVQ R13, R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ R12, R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	SHRQ $2, R12

group:
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   R13, CX

inner:
	LOADW
	TERM((BX), 4(BX), Y8, Y9, Y4)
	TERM(8(BX), 12(BX), Y10, Y11, Y5)
	TERM(16(BX), 20(BX), Y12, Y13, Y6)
	TERM(24(BX), 28(BX), Y14, Y15, Y7)
	ADDQ $8, AX
	ADDQ $64, BX
	DECQ CX
	JNZ  inner

	STORE4

	ADDQ $32, DI
	ADDQ $32, DX
	DECQ R12
	JNZ  group

	VZEROUPPER
	RET
