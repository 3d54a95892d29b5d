//go:build amd64 && !purego

package fft

import (
	"repro/internal/cf"
	"repro/internal/cpu"
)

// AVX2 stage kernels (DESIGN §10): the amd64 implementation of stages4's
// three loops, of the IQ12 gather, of the TX quantize-pack and of the
// pilot comb correlation, four complex64 per YMM register (two, widened
// to float64, in the correlation).
// They read the same twiddle planes and write the same in-place buffer as
// the Go loops, one call per stage, so the two implementations are
// interchangeable stage by stage — which is what the differential tests
// in stages_amd64_test.go exploit. A stage too short for a whole vector
// group (only reachable for n < 16) runs its Go loop instead.

func init() {
	if cpu.HasAVX2() {
		simd = avx2Kernels
	}
}

var avx2Kernels = &stageKernels{
	butterflies:   (*Plan).butterfliesAVX2,
	loadIQ12:      (*Plan).loadIQ12AVX2,
	storeIQ12:     storeIQ12AVX2,
	correlateComb: correlateCombAVX2,
}

// Mode bits of the stage kernels. Only an inverse transform scales, so
// the radix-4 kernel implements modeScale together with modeInverse only.
const (
	modeInverse = 1 // exchange the odd outputs (rotation by +i)
	modeScale   = 2 // multiply the outputs by scale before storing
)

// stageFirst4AVX2 is stageFirst4 over n >= 8 samples, two butterflies
// per iteration.
//
//go:noescape
func stageFirst4AVX2(x *complex64, n int, mode int)

// stageTwiddle4AVX2 is stageTwiddle4 for sub-size l >= 4 over the stage's
// planes at tw, four butterflies of one block per iteration.
//
//go:noescape
func stageTwiddle4AVX2(x *complex64, n, l int, tw *complex64, mode int, scale float32)

// stageLast2AVX2 is stageLast2 for n >= 8, four butterflies per
// iteration, with the twiddle product formed in float64 like Go's
// complex64 multiply.
//
//go:noescape
func stageLast2AVX2(x *complex64, n int, tw *complex64, mode int, scale float32)

// unpackIQ12AVX2 converts the n >= 16 samples of 24-bit IQ at src into
// blocks of four — samples q, q+n/4, q+n/2, q+3n/4 — and stores block q
// at dst[blk[q]] (blk is Plan.pos), sixteen samples per iteration. It
// reads src[0 : 3n] only.
//
//go:noescape
func unpackIQ12AVX2(dst *complex64, src *byte, n int, blk *uint32)

// quantIQ12AVX2 is cf.QuantizeIQ12 over n samples, n a positive multiple
// of 8: it reads src[0:n] and writes exactly dst[0 : 3n].
//
//go:noescape
func quantIQ12AVX2(dst *byte, src *complex64, n int, gain float32)

// combAVX2 is correlateComb over n > 0 samples in groups of group > 0
// into an even number k of accumulators per group: it reads x and p
// [0:n] and writes acc[0 : ⌈n/group⌉·k].
//
//go:noescape
func combAVX2(acc, x, p *complex64, k, n, group int)

// butterfliesAVX2 is stages4 on the assembly kernels, with the inverse
// 1/n folded into whichever stage runs last.
func (p *Plan) butterfliesAVX2(x []complex64, inverse, scale bool) {
	n := len(x)
	tw4, tw2 := p.twiddles(inverse)
	mode := 0
	if inverse {
		mode = modeInverse
	}
	inv := float32(1) / float32(n)
	switch {
	case n >= 8:
		stageFirst4AVX2(&x[0], n, mode)
	case n >= 4:
		stageFirst4(x, inverse)
	}
	span := p.radix4Span()
	off := 0
	for l := 4; 4*l <= span; l *= 4 {
		m := mode
		if scale && tw2 == nil && 4*l == span {
			m |= modeScale
			scale = false
		}
		stageTwiddle4AVX2(&x[0], n, l, &tw4[off], m, inv)
		off += 3 * l
	}
	if tw2 != nil {
		if n >= 8 {
			m := mode
			if scale {
				m |= modeScale
				scale = false
			}
			stageLast2AVX2(&x[0], n, &tw2[0], m, inv)
		} else {
			stageLast2(x, tw2)
		}
	}
	if scale {
		cf.Scale(x, inv)
	}
}

// loadIQ12AVX2 is gatherIQ12 turned inside out: instead of one random
// payload access per output slot it converts the payload in sample order
// and places whole first-stage blocks (see Plan.pos).
func (p *Plan) loadIQ12AVX2(dst []complex64, payload []byte, cpLen int) {
	if p.n < 16 {
		p.gatherIQ12(dst, payload, cpLen)
		return
	}
	unpackIQ12AVX2(&dst[0], &payload[cpLen*cf.BytesPerIQ], p.n, &p.pos[0])
}

// storeIQ12AVX2 runs the kernel over the whole groups of eight samples
// and cf.QuantizeIQ12 over the rest.
func storeIQ12AVX2(dst []byte, src []complex64, gain float32) {
	dst = dst[:len(src)*cf.BytesPerIQ] // the kernel's stores, bounds-checked once
	k := len(src) &^ 7
	if k > 0 {
		quantIQ12AVX2(&dst[0], &src[0], k, gain)
	}
	cf.QuantizeIQ12(dst[k*cf.BytesPerIQ:], src[k:], gain)
}

// correlateCombAVX2 runs the kernel on an even number of accumulators
// per group and correlateComb on an odd one: a row of an odd number of
// samples does not split into the kernel's pairs.
func correlateCombAVX2(acc, x, p []complex64, k, group int) {
	if k%2 != 0 {
		correlateComb(acc, x, p, k, group)
		return
	}
	combAVX2(&acc[0], &x[0], &p[0], k, len(x), group)
}
