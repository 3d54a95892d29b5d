//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// AVX2 kernels for the float32 layered decode (DESIGN §13). See
// lanes_amd64.go for the contracts; lanes.go/layered.go hold the Go loops
// these reproduce bit for bit on every lane below z.
//
// The slabs are padded to zp = ⌈z/8⌉·8 lanes, so layerAVX2 and signsAVX2
// only ever run whole vectors; loadSignsAVX2 reads the caller's unpadded
// LLRs and ends each block-column with one masked load (VMASKMOVPS
// neither reads nor faults on the masked-off lanes), the mask being
// (lane index < remaining) built from the iota constant in Y14.
//
// Operand order is what makes the results bit-identical to the Go code,
// including for NaN, ±0 and ties (Intel semantics, SRC1 first):
//   VSUBPS/VADDPS   a NaN in SRC1 wins, as in the scalar SUBSS/ADDSS
//   VMINPS(a, m)    = a < m ? a : m      returns SRC2 on NaN or equality
//   VMAXPS(m, a)    = m > a ? m : a      likewise
//   VCMPPS LT_OQ    false when either side is NaN
// Go assembler syntax lists operands in reverse, so SRC1 is the operand
// just before the destination.

DATA laneIota<>+0(SB)/4, $0
DATA laneIota<>+4(SB)/4, $1
DATA laneIota<>+8(SB)/4, $2
DATA laneIota<>+12(SB)/4, $3
DATA laneIota<>+16(SB)/4, $4
DATA laneIota<>+20(SB)/4, $5
DATA laneIota<>+24(SB)/4, $6
DATA laneIota<>+28(SB)/4, $7
GLOBL laneIota<>(SB), RODATA|NOPTR, $32

// float32(laneInitLLR); TestLaneInitConstant pins the two together.
DATA laneInit<>+0(SB)/4, $0x7f7fc99e
GLOBL laneInit<>(SB), RODATA|NOPTR, $4

#define LT_OQ $0x11

// REDUCE folds q (Y0) into the lane state: sgn Y6, min1 Y3, min2 Y4,
// idx Y5; edge number in Y7, sign mask in Y13; Y2, Y10, Y11, Y15 are
// scratch. Line by line:
//   Y2 = sign bit of q;  sgn ^= Y2;  Y10 = a = |q|
//   Y11 = a < min1
//   Y15 = max(min1, a) with a in SRC2, so a NaN a stays NaN and an a
//         equal to min1 counts as "not less"; then min2' = min(Y15, min2)
//         with min2 in SRC2, which keeps min2 for the NaN. That is the Go
//         if/else-if: a < min1 gives min(min1, min2) = min1, otherwise
//         a < min2 ? a : min2.
//   min1' = a < min1 ? a : min1
//   idx' = Y11 ? e : idx
#define REDUCE \
	VANDPS    Y13, Y0, Y2; \
	VPXOR     Y2, Y6, Y6; \
	VANDNPS   Y0, Y13, Y10; \
	VCMPPS    LT_OQ, Y3, Y10, Y11; \
	VMAXPS    Y10, Y3, Y15; \
	VMINPS    Y4, Y15, Y4; \
	VMINPS    Y3, Y10, Y3; \
	VBLENDVPS Y11, Y7, Y5, Y5

// MAGNITUDE maps m to (m*scl − off) with scl in Y10, off in Y11, zero in
// Y15, zeroed where that is < 0; −0.0 and NaN fail the compare and pass
// through, as in the Go clamp. Y2 is scratch.
#define MAGNITUDE(m) \
	VMULPS  Y10, m, m; \
	VSUBPS  Y11, m, m; \
	VCMPPS  LT_OQ, Y15, m, Y2; \
	VANDNPS m, Y2, m

// func layerAVX2(a *layerArgs)
//
// AX args, BX the edge, CX the vector's first lane, DX edges left, SI
// column 0 of l, R12 the same row moved back by z lanes (where lanes past
// an edge's t read), DI/R8 the edge's q and pass-1 message vectors, R10
// the slab stride and R11 rin's, R13 scratch. Y9 holds the vector's lane
// numbers, Y8 ones, Y14 eights, Y12 laneInitLLR.
TEXT ·layerAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ layerArgs_l(AX), SI
	MOVQ layerArgs_z(AX), R13
	SHLQ $2, R13
	MOVQ SI, R12
	SUBQ R13, R12
	MOVQ layerArgs_zp(AX), R10
	SHLQ $2, R10
	MOVQ layerArgs_rs(AX), R11
	VPCMPEQD     Y8, Y8, Y8
	VPSRLD       $31, Y8, Y8           // ones
	VPSLLD       $3, Y8, Y14           // eights
	VPSLLD       $31, Y8, Y13          // sign mask
	VMOVDQU      laneIota<>(SB), Y9
	VBROADCASTSS laneInit<>(SB), Y12
	XORQ CX, CX

	// Pass 1: per vector, min1 = min2 = laneInitLLR, idx = -1, sgn = 0,
	// then every edge's q = l − r folded in.
p1vec:
	VMOVAPS  Y12, Y3
	VMOVAPS  Y12, Y4
	VPCMPEQD Y5, Y5, Y5
	VPXOR    Y6, Y6, Y6
	VPXOR    Y7, Y7, Y7
	MOVQ layerArgs_edges(AX), BX
	MOVQ layerArgs_deg(AX), DX
	MOVQ layerArgs_q(AX), DI
	LEAQ (DI)(CX*4), DI
	MOVQ layerArgs_rin(AX), R8
	LEAQ (R8)(CX*4), R8
p1edge:
	// Lane r reads l[rd+r] up to t and l[rd+r−z] past it: two loads and
	// a blend on (lane > t).
	MOVQ         layerEdge_rd(BX), R13
	ADDQ         CX, R13
	VMOVUPS      (SI)(R13*4), Y0
	VMOVUPS      (R12)(R13*4), Y1
	VPBROADCASTD layerEdge_t(BX), Y2
	VPCMPGTD     Y2, Y9, Y2
	VBLENDVPS    Y2, Y1, Y0, Y0
	VSUBPS       (R8), Y0, Y0          // q = l - r
	VMOVUPS      Y0, (DI)
	REDUCE
	VPADDD Y8, Y7, Y7
	ADDQ   $layerEdge__size, BX
	ADDQ   R10, DI
	ADDQ   R11, R8
	DECQ   DX
	JNZ    p1edge
	VBROADCASTSS layerArgs_scl(AX), Y10
	VBROADCASTSS layerArgs_off(AX), Y11
	VPXOR        Y15, Y15, Y15
	MAGNITUDE(Y3)
	MAGNITUDE(Y4)
	MOVQ    layerArgs_min1(AX), R13
	VMOVUPS Y3, (R13)(CX*4)
	MOVQ    layerArgs_min2(AX), R13
	VMOVUPS Y4, (R13)(CX*4)
	MOVQ    layerArgs_idx(AX), R13
	VMOVDQU Y5, (R13)(CX*4)
	MOVQ    layerArgs_sgn(AX), R13
	VMOVDQU Y6, (R13)(CX*4)
	VPADDD  Y14, Y9, Y9
	ADDQ    $8, CX
	CMPQ    CX, layerArgs_zp(AX)
	JB      p1vec

	// Pass 2: per vector and edge, message = (idx == e ? m2 : m1) with
	// sign (sgn ^ q), posterior = q + message, both stored to the edge's
	// own lanes.
	XORQ CX, CX
p2vec:
	MOVQ    layerArgs_min1(AX), R13
	VMOVUPS (R13)(CX*4), Y3
	MOVQ    layerArgs_min2(AX), R13
	VMOVUPS (R13)(CX*4), Y4
	MOVQ    layerArgs_idx(AX), R13
	VMOVDQU (R13)(CX*4), Y5
	MOVQ    layerArgs_sgn(AX), R13
	VMOVDQU (R13)(CX*4), Y6
	VPXOR   Y7, Y7, Y7
	MOVQ layerArgs_edges(AX), BX
	MOVQ layerArgs_deg(AX), DX
	MOVQ layerArgs_q(AX), DI
	LEAQ (DI)(CX*4), DI
	MOVQ layerArgs_r(AX), R8
	LEAQ (R8)(CX*4), R8
p2edge:
	VMOVUPS   (DI), Y0
	VPCMPEQD  Y7, Y5, Y1
	VBLENDVPS Y1, Y4, Y3, Y1
	VPXOR     Y0, Y6, Y2
	VPAND     Y13, Y2, Y2
	VPXOR     Y2, Y1, Y1
	VMOVUPS   Y1, (R8)
	VADDPS    Y1, Y0, Y0               // posterior = q + message
	MOVQ      layerEdge_wr(BX), R13
	ADDQ      CX, R13
	VMOVUPS   Y0, (SI)(R13*4)
	VPADDD Y8, Y7, Y7
	ADDQ   $layerEdge__size, BX
	ADDQ   R10, DI
	ADDQ   R10, R8
	DECQ   DX
	JNZ    p2edge
	ADDQ $8, CX
	CMPQ CX, layerArgs_zp(AX)
	JB   p2vec
	VZEROUPPER
	RET

// func loadSignsAVX2(l, llr *float32, hard *uint64, cols, z, zp, hw int)
//
// DI/SI the block-column's l and llr rows, R8 its hard bytes, R9 columns
// left, R10 hw, R11 the hard byte of lane CX, R12 4·zp, R13 z, R14
// scratch. A masked tail loads +0.0 into the lanes past z, which compare
// false and are stored to l's padding.
TEXT ·loadSignsAVX2(SB), NOSPLIT, $0-56
	MOVQ l+0(FP), DI
	MOVQ llr+8(FP), SI
	MOVQ hard+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ z+32(FP), R13
	MOVQ zp+40(FP), R12
	SHLQ $2, R12
	MOVQ hw+48(FP), R10
	VMOVDQU laneIota<>(SB), Y14
	VPXOR   Y11, Y11, Y11
lcol:
	TESTQ R9, R9
	JZ    ldone
	MOVQ R8, R11
	XORQ CX, CX
lvec:
	LEAQ 8(CX), R14
	CMPQ R14, R13
	JA   ltail
	VMOVUPS   (SI)(CX*4), Y0
	VMOVUPS   Y0, (DI)(CX*4)
	VCMPPS    LT_OQ, Y11, Y0, Y1
	VMOVMSKPS Y1, BX
	MOVB      BX, (R11)
	INCQ R11
	MOVQ R14, CX
	JMP  lvec
ltail:
	MOVQ R13, R14
	SUBQ CX, R14
	JZ   lnext
	VMOVQ        R14, X10
	VPBROADCASTD X10, Y10
	VPCMPGTD     Y14, Y10, Y10
	VMASKMOVPS   (SI)(CX*4), Y10, Y0
	VMOVUPS      Y0, (DI)(CX*4)
	VCMPPS       LT_OQ, Y11, Y0, Y1
	VMOVMSKPS    Y1, BX
	MOVB         BX, (R11)
lnext:
	LEAQ (SI)(R13*4), SI
	ADDQ R12, DI
	ADDQ R10, R8
	DECQ R9
	JMP  lcol
ldone:
	VZEROUPPER
	RET

// func signsAVX2(l *float32, signs *uint64, cols, zp, hw, tail int)
//
// SI the block-column's l row, R8 its signs bytes, R9 columns left, R10
// hw, R11 the byte of lane CX, R12 4·zp, R13 zp, DX tail.
TEXT ·signsAVX2(SB), NOSPLIT, $0-48
	MOVQ l+0(FP), SI
	MOVQ signs+8(FP), R8
	MOVQ cols+16(FP), R9
	MOVQ zp+24(FP), R13
	MOVQ hw+32(FP), R10
	MOVQ tail+40(FP), DX
	LEAQ (R13*4), R12
	VPXOR Y11, Y11, Y11
scol:
	MOVQ R8, R11
	XORQ CX, CX
svec:
	VMOVUPS   (SI)(CX*4), Y0
	VCMPPS    LT_OQ, Y11, Y0, Y1
	VMOVMSKPS Y1, BX
	MOVB      BX, (R11)
	INCQ R11
	ADDQ $8, CX
	CMPQ CX, R13
	JB   svec
	ANDB DX, -1(R11)
	ADDQ R12, SI
	ADDQ R10, R8
	DECQ R9
	JNZ  scol
	VZEROUPPER
	RET
