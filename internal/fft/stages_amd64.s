//go:build amd64 && !purego

#include "textflag.h"

// AVX2 stage kernels for the split-radix FFT (DESIGN §10). See
// stages_amd64.go for the contracts; fft.go holds the Go loops these
// reproduce bit for bit.
//
// A YMM register holds four complex64 (re, im interleaved). Go assembler
// syntax lists operands in reverse of Intel's, so in
//   VSUBPS b, a, d        d = a - b
//   VADDSUBPS b, a, d     d = (a.re - b.re, a.im + b.im) per complex
//   VBLENDPS $m, b, a, d  d = a with the floats named by m taken from b
// SRC1 is the operand just before the destination. Every product, sum and
// difference below is its own instruction — no FMA — because the Go
// compiler does not fuse on amd64 and one rounding less would change the
// low bit.
//
// The butterfly's odd outputs are (t1r+ei, t1i-er) and (t1r-ei, t1i+er).
// Both kernels form t1+(ei,er) and t1-(ei,er) in full and blend the
// halves; negating (ei,er) for a single VADDSUBPS would flip the sign bit
// of a NaN the Go code passes through unchanged.

// VPSHUFB control of unpackIQ12AVX2: every 3-byte sample becomes the low
// bytes of a dword. The low lane holds a 16-byte load that starts at its
// four samples, the high lane one that starts four bytes before them.
DATA iq12Shuf<>+0(SB)/4, $0x80020100
DATA iq12Shuf<>+4(SB)/4, $0x80050403
DATA iq12Shuf<>+8(SB)/4, $0x80080706
DATA iq12Shuf<>+12(SB)/4, $0x800b0a09
DATA iq12Shuf<>+16(SB)/4, $0x80060504
DATA iq12Shuf<>+20(SB)/4, $0x80090807
DATA iq12Shuf<>+24(SB)/4, $0x800c0b0a
DATA iq12Shuf<>+28(SB)/4, $0x800f0e0d
GLOBL iq12Shuf<>(SB), RODATA|NOPTR, $32

// float32(1.0/2048), cf.IQ12At's scale.
DATA iq12Scale<>+0(SB)/4, $0x3a000000
GLOBL iq12Scale<>(SB), RODATA|NOPTR, $4

// FIRST4 is two unity-twiddle radix-4 butterflies, x[0:4] in Y0 and
// x[4:8] in Y1, results in place. ODD names the float of each odd output
// that comes from the difference: $0x88 (the imaginary part) forward,
// $0x44 (the real part) inverse. Line by line:
//   Y2 = [a0 b0 a1 b1], Y3 = [c0 d0 c1 d1]
//   Y4 = [t0 t2 t0 t2] = Y2+Y3, Y5 = [t1 e t1 e] = Y2-Y3
//   Y6 = [t0 t1 t0 t1], Y7 = [t2 (ei,er) t2 (ei,er)]
//   Y8 = Y6+Y7, Y9 = Y6-Y7
//   Y10 = [out0 out1 ...], Y11 = [out2 out3 ...]
#define FIRST4(ODD) \
	VPERM2F128 $0x20, Y1, Y0, Y2; \
	VPERM2F128 $0x31, Y1, Y0, Y3; \
	VADDPS     Y3, Y2, Y4; \
	VSUBPS     Y3, Y2, Y5; \
	VUNPCKLPD  Y5, Y4, Y6; \
	VUNPCKHPD  Y5, Y4, Y7; \
	VPERMILPS  $0xB4, Y7, Y7; \
	VADDPS     Y7, Y6, Y8; \
	VSUBPS     Y7, Y6, Y9; \
	VBLENDPS   ODD, Y9, Y8, Y10; \
	VBLENDPS   ODD, Y8, Y9, Y11; \
	VPERM2F128 $0x20, Y11, Y10, Y0; \
	VPERM2F128 $0x31, Y11, Y10, Y1

// func stageFirst4AVX2(x *complex64, n int, mode int)
//
// SI cursor, CX iterations of eight samples.
TEXT ·stageFirst4AVX2(SB), NOSPLIT, $0-24
	MOVQ  x+0(FP), SI
	MOVQ  n+8(FP), CX
	SHRQ  $3, CX
	MOVQ  mode+16(FP), AX
	TESTQ $1, AX
	JNZ   first_inv

first_fwd:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	FIRST4($0x88)
	VMOVUPS Y0, (SI)
	VMOVUPS Y1, 32(SI)
	ADDQ    $64, SI
	DECQ    CX
	JNZ     first_fwd
	VZEROUPPER
	RET

first_inv:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	FIRST4($0x44)
	VMOVUPS Y0, (SI)
	VMOVUPS Y1, 32(SI)
	ADDQ    $64, SI
	DECQ    CX
	JNZ     first_inv
	VZEROUPPER
	RET

// CMUL multiplies the four complex values in V by the four twiddles at W:
// (vr·wr − vi·wi, vi·wr + vr·wi), Y4–Y6 scratch.
#define CMUL(W, V) \
	VMOVSLDUP W, Y4; \
	VMOVSHDUP W, Y5; \
	VPERMILPS $0xB1, V, Y6; \
	VMULPS    Y4, V, V; \
	VMULPS    Y5, Y6, Y6; \
	VADDSUBPS Y6, V, V

// TW4 is four twiddled radix-4 butterflies of one block: q0..q3[j:j+4]
// at (SI), (SI)(R8*1), (SI)(R8*2), (SI)(R9*1), their w1|w2|w3 at (R10),
// (R10)(R8*1), (R10)(R8*2). Outputs: Y0 q0, Y2 q2, Y1 (t1r+ei, t1i-er),
// Y3 (t1r-ei, t1i+er).
#define TW4 \
	VMOVUPS   (SI)(R8*1), Y1; \
	VMOVUPS   (SI)(R8*2), Y2; \
	VMOVUPS   (SI)(R9*1), Y3; \
	CMUL((R10), Y1); \
	CMUL((R10)(R8*1), Y2); \
	CMUL((R10)(R8*2), Y3); \
	VMOVUPS   (SI), Y0; \
	VADDPS    Y2, Y0, Y4; \
	VSUBPS    Y2, Y0, Y5; \
	VADDPS    Y3, Y1, Y6; \
	VSUBPS    Y3, Y1, Y7; \
	VPERMILPS $0xB1, Y7, Y7; \
	VADDPS    Y6, Y4, Y0; \
	VSUBPS    Y6, Y4, Y2; \
	VADDPS    Y7, Y5, Y8; \
	VSUBPS    Y7, Y5, Y9; \
	VBLENDPS  $0xAA, Y9, Y8, Y1; \
	VBLENDPS  $0xAA, Y8, Y9, Y3

// TW4NEXT steps to the block's next four butterflies.
#define TW4NEXT \
	ADDQ $32, SI; \
	ADDQ $32, R10; \
	DECQ DX

// func stageTwiddle4AVX2(x *complex64, n, l int, tw *complex64, mode int, scale float32)
//
// SI cursor into the block's q0, R8 = 8l (bytes per quarter and per
// twiddle plane), R9 = 24l, R12 end of x, DI planes, R10 plane cursor,
// BX = l/4 vector groups per block, DX groups left, Y15 scale.
TEXT ·stageTwiddle4AVX2(SB), NOSPLIT, $0-44
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ l+16(FP), BX
	MOVQ tw+24(FP), DI
	MOVQ mode+32(FP), AX
	LEAQ (SI)(CX*8), R12
	MOVQ BX, R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	SHRQ $2, BX
	CMPQ AX, $0
	JEQ  tw_fwd_block
	CMPQ AX, $1
	JEQ  tw_inv_block
	VBROADCASTSS scale+40(FP), Y15
	JMP  tw_scl_block

tw_fwd_block:
	MOVQ DI, R10
	MOVQ BX, DX

tw_fwd:
	TW4
	VMOVUPS Y0, (SI)
	VMOVUPS Y1, (SI)(R8*1)
	VMOVUPS Y2, (SI)(R8*2)
	VMOVUPS Y3, (SI)(R9*1)
	TW4NEXT
	JNZ     tw_fwd
	ADDQ    R9, SI
	CMPQ    SI, R12
	JB      tw_fwd_block
	VZEROUPPER
	RET

tw_inv_block:
	MOVQ DI, R10
	MOVQ BX, DX

tw_inv:
	TW4
	VMOVUPS Y0, (SI)
	VMOVUPS Y3, (SI)(R8*1)
	VMOVUPS Y2, (SI)(R8*2)
	VMOVUPS Y1, (SI)(R9*1)
	TW4NEXT
	JNZ     tw_inv
	ADDQ    R9, SI
	CMPQ    SI, R12
	JB      tw_inv_block
	VZEROUPPER
	RET

tw_scl_block:
	MOVQ DI, R10
	MOVQ BX, DX

tw_scl:
	TW4
	VMULPS  Y15, Y0, Y0
	VMULPS  Y15, Y1, Y1
	VMULPS  Y15, Y2, Y2
	VMULPS  Y15, Y3, Y3
	VMOVUPS Y0, (SI)
	VMOVUPS Y3, (SI)(R8*1)
	VMOVUPS Y2, (SI)(R8*2)
	VMOVUPS Y1, (SI)(R9*1)
	TW4NEXT
	JNZ     tw_scl
	ADDQ    R9, SI
	CMPQ    SI, R12
	JB      tw_scl_block
	VZEROUPPER
	RET

// CMUL64 multiplies the two complex values in V by the two twiddles in W,
// all float64: (vr·wr − vi·wi, vi·wr + vr·wi). The products are exact (24
// significant bits each), the sum rounds once to float64 and the caller
// rounds once more to float32 — the sequence Go emits for hi[j]*w.
#define CMUL64(W, V) \
	VMOVDDUP  W, Y4; \
	VPERMILPD $0xF, W, Y5; \
	VPERMILPD $0x5, V, Y6; \
	VMULPD    Y4, V, V; \
	VMULPD    Y5, Y6, Y6; \
	VADDSUBPD Y6, V, V

// LAST2 is four trailing radix-2 butterflies: lo at (SI), hi at (R8),
// twiddles at (DI). Outputs: Y3 lo, Y4 hi.
#define LAST2 \
	VCVTPS2PD   (R8), Y0; \
	VCVTPS2PD   16(R8), Y1; \
	VCVTPS2PD   (DI), Y2; \
	VCVTPS2PD   16(DI), Y3; \
	CMUL64(Y2, Y0); \
	CMUL64(Y3, Y1); \
	VCVTPD2PSY  Y0, X0; \
	VCVTPD2PSY  Y1, X1; \
	VINSERTF128 $1, X1, Y0, Y0; \
	VMOVUPS     (SI), Y2; \
	VADDPS      Y0, Y2, Y3; \
	VSUBPS      Y0, Y2, Y4

#define LAST2NEXT \
	ADDQ $32, SI; \
	ADDQ $32, R8; \
	ADDQ $32, DI; \
	DECQ CX

// func stageLast2AVX2(x *complex64, n int, tw *complex64, mode int, scale float32)
//
// SI lo cursor, R8 hi cursor, DI twiddle cursor, CX iterations of four
// butterflies, Y15 scale.
TEXT ·stageLast2AVX2(SB), NOSPLIT, $0-36
	MOVQ  x+0(FP), SI
	MOVQ  n+8(FP), CX
	MOVQ  tw+16(FP), DI
	MOVQ  mode+24(FP), AX
	LEAQ  (SI)(CX*4), R8
	SHRQ  $3, CX
	TESTQ $2, AX
	JNZ   last_scl_setup

last_plain:
	LAST2
	VMOVUPS Y3, (SI)
	VMOVUPS Y4, (R8)
	LAST2NEXT
	JNZ     last_plain
	VZEROUPPER
	RET

last_scl_setup:
	VBROADCASTSS scale+32(FP), Y15

last_scl:
	LAST2
	VMULPS  Y15, Y3, Y3
	VMULPS  Y15, Y4, Y4
	VMOVUPS Y3, (SI)
	VMOVUPS Y4, (R8)
	LAST2NEXT
	JNZ     last_scl
	VZEROUPPER
	RET

// IQ12 turns the eight 24-bit words of W (one per dword) into floats:
// the 12-bit fields sign-extended by a shift pair, converted, and scaled
// by 1/2048 — exact at every step, so equal to cf.IQ12At's magic-number
// route. I parts in FI, Q parts in FQ.
#define IQ12(W, FI, FQ) \
	VPSLLD    $20, W, FI; \
	VPSRAD    $20, FI, FI; \
	VPSLLD    $8, W, FQ; \
	VPSRAD    $20, FQ, FQ; \
	VCVTDQ2PS FI, FI; \
	VCVTDQ2PS FQ, FQ; \
	VMULPS    Y13, FI, FI; \
	VMULPS    Y13, FQ, FQ

// func unpackIQ12AVX2(dst *complex64, src *byte, n int, blk *uint32)
//
// One iteration converts samples s..s+3 of each quarter of the symbol and
// stores the four first-stage blocks they form. SI, R9 point at the
// quarter-0 and quarter-1 samples, R10, R11 four bytes before the
// quarter-2 and quarter-3 samples: a 16-byte load covers the 12 bytes
// wanted, and sliding the upper quarters' loads back keeps the last one
// inside the payload. Y0 = quarters 0|2, Y1 = quarters 1|3 (low|high
// lane); BX walks blk, CX counts iterations.
TEXT ·unpackIQ12AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ blk+24(FP), BX
	LEAQ (CX)(CX*2), R8
	SHRQ $2, R8
	LEAQ (SI)(R8*1), R9
	LEAQ -4(R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	SHRQ $4, CX
	VMOVDQU      iq12Shuf<>(SB), Y12
	VBROADCASTSS iq12Scale<>(SB), Y13

unpack_loop:
	VMOVDQU     (SI), X0
	VINSERTI128 $1, (R10), Y0, Y0
	VMOVDQU     (R9), X1
	VINSERTI128 $1, (R11), Y1, Y1
	VPSHUFB     Y12, Y0, Y0
	VPSHUFB     Y12, Y1, Y1
	IQ12(Y0, Y2, Y3)
	IQ12(Y1, Y4, Y5)

	// Interleave I and Q into samples, then samples of the four quarters
	// into blocks: Y6 = [x0(s) x0(s+1) | x2(s) x2(s+1)], Y8 the same of
	// quarters 1|3, so their 64-bit unpack is block s, then block s+1.
	VUNPCKLPS Y3, Y2, Y6
	VUNPCKHPS Y3, Y2, Y7
	VUNPCKLPS Y5, Y4, Y8
	VUNPCKHPS Y5, Y4, Y9
	VUNPCKLPD Y8, Y6, Y0
	VUNPCKHPD Y8, Y6, Y1
	VUNPCKLPD Y9, Y7, Y2
	VUNPCKHPD Y9, Y7, Y3
	MOVL      (BX), AX
	VMOVUPS   Y0, (DI)(AX*8)
	MOVL      4(BX), AX
	VMOVUPS   Y1, (DI)(AX*8)
	MOVL      8(BX), AX
	VMOVUPS   Y2, (DI)(AX*8)
	MOVL      12(BX), AX
	VMOVUPS   Y3, (DI)(AX*8)
	ADDQ      $12, SI
	ADDQ      $12, R9
	ADDQ      $12, R10
	ADDQ      $12, R11
	ADDQ      $16, BX
	DECQ      CX
	JNZ       unpack_loop
	VZEROUPPER
	RET

// Constants of quantIQ12AVX2.
DATA iq12Max<>+0(SB)/4, $0x44ffe000 // 2047.0
GLOBL iq12Max<>(SB), RODATA|NOPTR, $4
DATA iq12Min<>+0(SB)/4, $0xc5000000 // -2048.0
GLOBL iq12Min<>(SB), RODATA|NOPTR, $4
DATA iq12Full<>+0(SB)/4, $0x45000000 // 2048.0
GLOBL iq12Full<>(SB), RODATA|NOPTR, $4
DATA iq12Mask<>+0(SB)/4, $0x0fff0fff // 12-bit field of each word
GLOBL iq12Mask<>(SB), RODATA|NOPTR, $4
DATA iq12Madd<>+0(SB)/4, $0x10000001 // word pair (1, 4096): I | Q<<12
GLOBL iq12Madd<>(SB), RODATA|NOPTR, $4

// VPSHUFB control: the low three bytes of each dword, 12 bytes per lane.
DATA iq12Pack<>+0(SB)/4, $0x04020100
DATA iq12Pack<>+4(SB)/4, $0x09080605
DATA iq12Pack<>+8(SB)/4, $0x0e0d0c0a
DATA iq12Pack<>+12(SB)/4, $0x80808080
DATA iq12Pack<>+16(SB)/4, $0x04020100
DATA iq12Pack<>+20(SB)/4, $0x09080605
DATA iq12Pack<>+24(SB)/4, $0x0e0d0c0a
DATA iq12Pack<>+28(SB)/4, $0x80808080
GLOBL iq12Pack<>(SB), RODATA|NOPTR, $32

// VPERMD indices joining the lanes' 12 bytes into 24 contiguous ones.
DATA iq12Join<>+0(SB)/4, $0
DATA iq12Join<>+4(SB)/4, $1
DATA iq12Join<>+8(SB)/4, $2
DATA iq12Join<>+12(SB)/4, $4
DATA iq12Join<>+16(SB)/4, $5
DATA iq12Join<>+20(SB)/4, $6
DATA iq12Join<>+24(SB)/4, $3
DATA iq12Join<>+28(SB)/4, $7
GLOBL iq12Join<>(SB), RODATA|NOPTR, $32

// func quantIQ12AVX2(dst *byte, src *complex64, n int, gain float32)
//
// Eight samples per iteration: Y0 = samples 0–3, Y1 = samples 4–7 (I, Q
// interleaved). Each float is ×gain, ×2048, clamped and rounded to even
// (VCVTPS2DQ under the default MXCSR). The clamp constant is VMINPS's
// second Intel source, so a NaN, which fails every compare, becomes 2047
// as in cf's quant12. VPACKSSDW packs lane-wise, leaving the words as
// samples 0-1, 4-5, 2-3, 6-7; VPERMQ $0xD8 restores sample order. Every
// instruction is VEX-encoded (VMOVQ, not MOVQ, for the last 8 bytes): a
// legacy-SSE instruction while upper YMM halves are dirty can cost an
// SSE/AVX transition. SI cursor, DI output cursor, CX iterations.
TEXT ·quantIQ12AVX2(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS gain+24(FP), Y15
	VBROADCASTSS iq12Full<>(SB), Y14
	VBROADCASTSS iq12Max<>(SB), Y13
	VBROADCASTSS iq12Min<>(SB), Y12
	VPBROADCASTD iq12Mask<>(SB), Y11
	VPBROADCASTD iq12Madd<>(SB), Y10
	VMOVDQU      iq12Pack<>(SB), Y9
	VMOVDQU      iq12Join<>(SB), Y8

quant_loop:
	VMOVUPS      (SI), Y0
	VMOVUPS      32(SI), Y1
	VMULPS       Y15, Y0, Y0
	VMULPS       Y15, Y1, Y1
	VMULPS       Y14, Y0, Y0
	VMULPS       Y14, Y1, Y1
	VMINPS       Y13, Y0, Y0
	VMINPS       Y13, Y1, Y1
	VMAXPS       Y12, Y0, Y0
	VMAXPS       Y12, Y1, Y1
	VCVTPS2DQ    Y0, Y0
	VCVTPS2DQ    Y1, Y1
	VPACKSSDW    Y1, Y0, Y0
	VPERMQ       $0xD8, Y0, Y0
	VPAND        Y11, Y0, Y0
	VPMADDWD     Y10, Y0, Y0
	VPSHUFB      Y9, Y0, Y0
	VPERMD       Y0, Y8, Y0
	VMOVDQU      X0, (DI)
	VEXTRACTI128 $1, Y0, X1
	VMOVQ        X1, 16(DI)
	ADDQ         $64, SI
	ADDQ         $24, DI
	DECQ         CX
	JNZ          quant_loop
	VZEROUPPER
	RET

// func combAVX2(acc, x, p *complex64, k, n, group int)
//
// Group by group, and in a group one accumulator pair at a time, down its
// column: X0 holds acc[j], acc[j+1] as float32, and each row whose
// samples j and j+1 both lie inside the group adds their two products,
// widened to float64 so each part rounds once, as Go's complex64
// multiply does, before the float32 add:
//   Y1 = [xr0 xi0 xr1 xi1], Y2 = [pr0 pi0 pr1 pi1]   (VCVTPS2PD)
//   Y3 = [xr xr], Y4 = [xi xi], Y5 = [pi pr] per complex
//   Y3 = Y3*Y2 = [xr·pr, xr·pi], Y4 = Y4*Y5 = [xi·pi, xi·pr]
//   Y3 = [xr·pr − xi·pi, xr·pi + xi·pr]               (VADDSUBPD)
// A partial last row can end between j and j+1: that one sample is
// added to acc[j] alone, with the same steps on one complex in an XMM
// register, after the column's other rows. DI accumulator pair, SI group
// head in x, R11 column head, AX row cursor, DX the offset of p from x,
// R8 the row stride in bytes, R13 the group stride in bytes, R9 the end
// of the group, R12 the end of x, R10 pairs left in the group.
TEXT ·combAVX2(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), R12
	MOVQ group+40(FP), R13
	LEAQ (SI)(R12*8), R12
	SHLQ $3, R13
	SUBQ SI, DX
	SHLQ $3, R8

comb_group:
	LEAQ    (SI)(R13*1), R9
	CMPQ    R9, R12
	CMOVQHI R12, R9
	MOVQ    R8, R10
	SHRQ    $4, R10
	MOVQ    SI, R11

comb_pair:
	MOVQ R11, AX
	LEAQ 16(AX), CX
	CMPQ CX, R9
	JHI  comb_single
	VMOVUPS (DI), X0

comb_row:
	VCVTPS2PD  (AX), Y1
	VCVTPS2PD  (AX)(DX*1), Y2
	VMOVDDUP   Y1, Y3
	VPERMILPD  $0xF, Y1, Y4
	VPERMILPD  $0x5, Y2, Y5
	VMULPD     Y2, Y3, Y3
	VMULPD     Y5, Y4, Y4
	VADDSUBPD  Y4, Y3, Y3
	VCVTPD2PSY Y3, X3
	VADDPS     X3, X0, X0
	ADDQ       R8, AX
	LEAQ       16(AX), CX
	CMPQ       CX, R9
	JLS        comb_row
	VMOVUPS    X0, (DI)

comb_single:
	LEAQ       8(AX), CX
	CMPQ       CX, R9
	JHI        comb_next
	VCVTPS2PD  (AX), X1
	VCVTPS2PD  (AX)(DX*1), X2
	VMOVDDUP   X1, X3
	VPERMILPD  $0x3, X1, X4
	VPERMILPD  $0x1, X2, X5
	VMULPD     X2, X3, X3
	VMULPD     X5, X4, X4
	VADDSUBPD  X4, X3, X3
	VCVTPD2PSX X3, X3
	VMOVQ      (DI), X0
	VADDPS     X3, X0, X0
	VMOVQ      X0, (DI)

comb_next:
	ADDQ $16, DI
	ADDQ $16, R11
	DECQ R10
	JNZ  comb_pair
	MOVQ R9, SI
	CMPQ SI, R12
	JLO  comb_group
	VZEROUPPER
	RET
