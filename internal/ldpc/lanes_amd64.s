//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// AVX2 layer kernels for the float32 layered decode (DESIGN §13). See
// lanes_amd64.go for the contracts; lanes.go/layered.go hold the Go loops
// these reproduce bit for bit.
//
// All three kernels take one *layerArgs (fields via go_asm.h) and walk
// lanes in units of eight. A run of lanes [CX, DX) is processed as full
// vectors while eight lanes remain, then one masked group for the 1..7
// left over: VMASKMOVPS neither reads nor writes (nor faults on) the
// masked-off lanes, so the slabs need no padding. The tail mask is
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

// TAILMASK sets Y10 to all-ones in the first R14 (1..7) lanes.
#define TAILMASK \
	VMOVQ        R14, X10; \
	VPBROADCASTD X10, Y10; \
	VPCMPGTD     Y14, Y10, Y10

// REDUCE folds q (Y0) into the lane state: sgn Y1, min1 Y3, min2 Y4,
// idx Y8; edge number broadcast in Y9, sign mask in Y13. Results: sgn Y1,
// min1 Y7, min2 Y6, idx Y8. Line by line:
//   Y2 = sign bit of q;  sgn ^= Y2;  Y2 = a = |q|
//   Y5 = a < min1
//   Y6 = max(min1, a) with a in SRC2, so a NaN a stays NaN and an a equal
//        to min1 counts as "not less"; then min2' = min(Y6, min2) with min2
//        in SRC2, which keeps min2 for the NaN. That is the Go if/else-if:
//        a < min1 gives min(min1, min2) = min1, otherwise a < min2 ? a : min2.
//   Y7 = min1' = a < min1 ? a : min1
//   idx' = Y5 ? e : idx
#define REDUCE \
	VANDPS    Y13, Y0, Y2; \
	VPXOR     Y2, Y1, Y1; \
	VANDNPS   Y0, Y13, Y2; \
	VCMPPS    LT_OQ, Y3, Y2, Y5; \
	VMAXPS    Y2, Y3, Y6; \
	VMINPS    Y4, Y6, Y6; \
	VMINPS    Y3, Y2, Y7; \
	VBLENDVPS Y5, Y9, Y8, Y8

// func layerReduceAVX2(a *layerArgs)
//
// AX args, BX edge, CX lane, DX segment end, SI source row of l (so that
// lane j reads (SI)(j*4)), DI/R8 the edge's q/r rows, R9 min1, R10 min2,
// R11 idx, R12 sgn, R13 z, R14 scratch.
TEXT ·layerReduceAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ layerArgs_z(AX), R13
	MOVQ layerArgs_q(AX), DI
	MOVQ layerArgs_r(AX), R8
	MOVQ layerArgs_min1(AX), R9
	MOVQ layerArgs_min2(AX), R10
	MOVQ layerArgs_idx(AX), R11
	MOVQ layerArgs_sgn(AX), R12
	VMOVDQU      laneIota<>(SB), Y14
	VPCMPEQD     Y1, Y1, Y1            // idx init: -1
	VPSLLD       $31, Y1, Y13          // sign mask
	VBROADCASTSS laneInit<>(SB), Y12
	VPXOR        Y11, Y11, Y11

	// Lane state: min1 = min2 = laneInitLLR, idx = -1, sgn = 0.
	XORQ CX, CX
rinit:
	LEAQ 8(CX), R14
	CMPQ R14, R13
	JA   rinittail
	VMOVUPS Y12, (R9)(CX*4)
	VMOVUPS Y12, (R10)(CX*4)
	VMOVDQU Y1, (R11)(CX*4)
	VMOVDQU Y11, (R12)(CX*4)
	MOVQ R14, CX
	JMP  rinit
rinittail:
	MOVQ R13, R14
	SUBQ CX, R14
	JZ   redges
	TAILMASK
	VMASKMOVPS Y12, Y10, (R9)(CX*4)
	VMASKMOVPS Y12, Y10, (R10)(CX*4)
	VMASKMOVPS Y1, Y10, (R11)(CX*4)
	VMASKMOVPS Y11, Y10, (R12)(CX*4)

redges:
	XORQ BX, BX
redge:
	CMPQ BX, layerArgs_deg(AX)
	JGE  rdone
	MOVQ layerArgs_edgeBase(AX), SI
	MOVQ (SI)(BX*8), SI                // base
	MOVQ layerArgs_edgeShf(AX), DX
	MOVQ (DX)(BX*8), DX                // shift
	ADDQ DX, SI
	MOVQ layerArgs_l(AX), R14
	LEAQ (R14)(SI*4), SI               // lanes [0, z-shift) read l[base+shift+lane]
	NEGQ DX
	ADDQ R13, DX                       // first segment ends at z-shift
	VMOVQ        BX, X9
	VPBROADCASTD X9, Y9
	XORQ CX, CX
rvec:
	LEAQ 8(CX), R14
	CMPQ R14, DX
	JA   rtail
	VMOVUPS (SI)(CX*4), Y0
	VSUBPS  (R8)(CX*4), Y0, Y0         // q = l - r
	VMOVUPS Y0, (DI)(CX*4)
	VMOVDQU (R12)(CX*4), Y1
	VMOVUPS (R9)(CX*4), Y3
	VMOVUPS (R10)(CX*4), Y4
	VMOVDQU (R11)(CX*4), Y8
	REDUCE
	VMOVDQU Y1, (R12)(CX*4)
	VMOVUPS Y7, (R9)(CX*4)
	VMOVUPS Y6, (R10)(CX*4)
	VMOVDQU Y8, (R11)(CX*4)
	MOVQ R14, CX
	JMP  rvec
rtail:
	MOVQ DX, R14
	SUBQ CX, R14
	JZ   rsegdone
	TAILMASK
	VMASKMOVPS (SI)(CX*4), Y10, Y0
	VMASKMOVPS (R8)(CX*4), Y10, Y2
	VSUBPS     Y2, Y0, Y0
	VMASKMOVPS Y0, Y10, (DI)(CX*4)
	VMASKMOVPS (R12)(CX*4), Y10, Y1
	VMASKMOVPS (R9)(CX*4), Y10, Y3
	VMASKMOVPS (R10)(CX*4), Y10, Y4
	VMASKMOVPS (R11)(CX*4), Y10, Y8
	REDUCE
	VMASKMOVPS Y1, Y10, (R12)(CX*4)
	VMASKMOVPS Y7, Y10, (R9)(CX*4)
	VMASKMOVPS Y6, Y10, (R10)(CX*4)
	VMASKMOVPS Y8, Y10, (R11)(CX*4)
	MOVQ DX, CX
rsegdone:
	CMPQ DX, R13
	JGE  rnext
	// Second segment: lanes [z-shift, z) read l[base+lane-(z-shift)],
	// the same row pointer moved back by z.
	LEAQ (R13*4), R14
	SUBQ R14, SI
	MOVQ R13, DX
	JMP  rvec
rnext:
	LEAQ (DI)(R13*4), DI
	LEAQ (R8)(R13*4), R8
	INCQ BX
	JMP  redge
rdone:
	VZEROUPPER
	RET

// MAGNITUDE maps Y0 to (Y0*scl − off), zeroed where that is < 0; −0.0
// and NaN fail the compare and pass through, as in the Go clamp.
#define MAGNITUDE \
	VMULPS  Y1, Y0, Y0; \
	VSUBPS  Y2, Y0, Y0; \
	VCMPPS  LT_OQ, Y11, Y0, Y4; \
	VANDNPS Y0, Y4, Y0

// func layerMagAVX2(a *layerArgs)
TEXT ·layerMagAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ layerArgs_z(AX), R13
	MOVQ layerArgs_min1(AX), R9
	MOVQ layerArgs_min2(AX), R10
	VMOVDQU      laneIota<>(SB), Y14
	VBROADCASTSS layerArgs_scl(AX), Y1
	VBROADCASTSS layerArgs_off(AX), Y2
	VPXOR        Y11, Y11, Y11
	XORQ CX, CX
mvec:
	LEAQ 8(CX), R14
	CMPQ R14, R13
	JA   mtail
	VMOVUPS (R9)(CX*4), Y0
	MAGNITUDE
	VMOVUPS Y0, (R9)(CX*4)
	VMOVUPS (R10)(CX*4), Y0
	MAGNITUDE
	VMOVUPS Y0, (R10)(CX*4)
	MOVQ R14, CX
	JMP  mvec
mtail:
	MOVQ R13, R14
	SUBQ CX, R14
	JZ   mdone
	TAILMASK
	VMASKMOVPS (R9)(CX*4), Y10, Y0
	MAGNITUDE
	VMASKMOVPS Y0, Y10, (R9)(CX*4)
	VMASKMOVPS (R10)(CX*4), Y10, Y0
	MAGNITUDE
	VMASKMOVPS Y0, Y10, (R10)(CX*4)
mdone:
	VZEROUPPER
	RET

// UPDATE computes the new message and posterior from q Y0, idx Y1,
// m1 Y2, m2 Y3, sgn Y4 (edge number in Y9, sign mask Y13, zero Y11):
// message in Y2, posterior in Y0, and in Y4 a per-lane sign bit set where
// (posterior < 0) differs from the hard byte loaded from (R13)(CX).
// Line by line:
//   Y1 = idx == e;  Y2 = mag = Y1 ? m2 : m1
//   Y4 = (sgn ^ q) & sign mask;  Y2 = message = mag ^ Y4
//   Y0 = posterior = q + message (q in SRC1)
//   Y4 = posterior < 0, all-ones or zero (false for -0 and NaN, as in Go)
//   Y5 = the eight hard bytes widened to dwords, moved to the sign bit
//   Y4 ^= Y5: sign bit set exactly where the hard decision flips
#define UPDATE \
	VPCMPEQD  Y9, Y1, Y1; \
	VBLENDVPS Y1, Y3, Y2, Y2; \
	VPXOR     Y0, Y4, Y4; \
	VPAND     Y13, Y4, Y4; \
	VPXOR     Y4, Y2, Y2; \
	VADDPS    Y2, Y0, Y0; \
	VCMPPS    LT_OQ, Y11, Y0, Y4; \
	VPMOVZXBD (R13)(CX*1), Y5; \
	VPSLLD    $31, Y5, Y5; \
	VPXOR     Y5, Y4, Y4

// RECORD appends (variable index of lane CX | BX<<32) to the flip list.
#define RECORD \
	LEAQ (R13)(CX*1), R14; \
	SUBQ layerArgs_hard(AX), R14; \
	SHLQ $32, BX; \
	ORQ  R14, BX; \
	MOVQ layerArgs_flips(AX), R14; \
	MOVQ BX, (R14); \
	ADDQ $8, layerArgs_flips(AX); \
	INCQ layerArgs_nflips(AX)

// func layerUpdateAVX2(a *layerArgs)
//
// AX args, BX flip mask, CX lane, DX segment end, SI destination row of
// l, DI/R8 the edge's q/r rows, R9 m1, R10 m2, R11 idx, R12 sgn, R13 the
// hard bytes of the destination row, R14 scratch; the edge counter lives
// in the frame.
TEXT ·layerUpdateAVX2(SB), NOSPLIT, $8-8
	MOVQ a+0(FP), AX
	MOVQ layerArgs_q(AX), DI
	MOVQ layerArgs_r(AX), R8
	MOVQ layerArgs_min1(AX), R9
	MOVQ layerArgs_min2(AX), R10
	MOVQ layerArgs_idx(AX), R11
	MOVQ layerArgs_sgn(AX), R12
	VMOVDQU  laneIota<>(SB), Y14
	VPCMPEQD Y13, Y13, Y13
	VPSLLD   $31, Y13, Y13             // sign mask
	VPXOR    Y11, Y11, Y11
	MOVQ $0, edge-8(SP)
uedge:
	MOVQ edge-8(SP), BX
	CMPQ BX, layerArgs_deg(AX)
	JGE  udone
	VMOVQ        BX, X9
	VPBROADCASTD X9, Y9
	MOVQ layerArgs_edgeBase(AX), SI
	MOVQ (SI)(BX*8), SI                // base
	MOVQ layerArgs_edgeShf(AX), DX
	MOVQ (DX)(BX*8), DX                // shift
	ADDQ DX, SI
	MOVQ layerArgs_hard(AX), R13
	ADDQ SI, R13                       // lane j is variable base+shift+j
	MOVQ layerArgs_l(AX), R14
	LEAQ (R14)(SI*4), SI
	NEGQ DX
	ADDQ layerArgs_z(AX), DX           // first segment ends at z-shift
	XORQ CX, CX
uvec:
	LEAQ 8(CX), R14
	CMPQ R14, DX
	JA   utail
	VMOVUPS (DI)(CX*4), Y0
	VMOVDQU (R11)(CX*4), Y1
	VMOVUPS (R9)(CX*4), Y2
	VMOVUPS (R10)(CX*4), Y3
	VMOVDQU (R12)(CX*4), Y4
	UPDATE
	VMOVUPS Y2, (R8)(CX*4)
	VMOVUPS Y0, (SI)(CX*4)
	VMOVMSKPS Y4, BX
	TESTL BX, BX
	JNZ  uvecflip
uvecnext:
	ADDQ $8, CX
	JMP  uvec
uvecflip:
	RECORD
	JMP  uvecnext
utail:
	MOVQ DX, R14
	SUBQ CX, R14
	JZ   usegdone
	TAILMASK
	VMASKMOVPS (DI)(CX*4), Y10, Y0
	VMASKMOVPS (R11)(CX*4), Y10, Y1
	VMASKMOVPS (R9)(CX*4), Y10, Y2
	VMASKMOVPS (R10)(CX*4), Y10, Y3
	VMASKMOVPS (R12)(CX*4), Y10, Y4
	// The eight hard bytes are loaded whole: up to seven of them belong
	// to the lanes after the tail (hardPad keeps that inside the slice)
	// and are masked out of the flip bits below.
	UPDATE
	VMASKMOVPS Y2, Y10, (R8)(CX*4)
	VMASKMOVPS Y0, Y10, (SI)(CX*4)
	VPAND     Y10, Y4, Y4
	VMOVMSKPS Y4, BX
	TESTL BX, BX
	JZ   utaildone
	RECORD
utaildone:
	MOVQ DX, CX
usegdone:
	MOVQ layerArgs_z(AX), R14
	CMPQ DX, R14
	JGE  unext
	// Second segment: lanes [z-shift, z) are variables base.., the same
	// rows moved back by z.
	SUBQ R14, R13
	SHLQ $2, R14
	SUBQ R14, SI
	MOVQ layerArgs_z(AX), DX
	JMP  uvec
unext:
	MOVQ layerArgs_z(AX), R14
	LEAQ (DI)(R14*4), DI
	LEAQ (R8)(R14*4), R8
	INCQ edge-8(SP)
	JMP  uedge
udone:
	VZEROUPPER
	RET
