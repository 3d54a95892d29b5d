package fft

// Kernel selection for the split-radix transform (DESIGN §10): the stage
// loops of stages4, the IQ12 front end of ForwardIQ12, the IQ12 back end
// of StoreIQ12 and the pilot correlation of CorrelateComb have an AVX2
// implementation (stages_amd64.s), chosen by the rule in the internal/cpu
// package doc. Both produce the same bits after every stage, the same
// bytes on the wire and the same channel estimate.

// stageKernels is a vector implementation of the loops a plan spends its
// time in, of the TX conversion after the inverse transform and of the
// pilot correlation after the forward one.
type stageKernels struct {
	// butterflies is stages4 plus, when scale is set, the inverse
	// transform's 1/n folded into the last stage.
	butterflies func(p *Plan, x []complex64, inverse, scale bool)
	// loadIQ12 is gatherIQ12.
	loadIQ12 func(p *Plan, dst []complex64, payload []byte, cpLen int)
	// storeIQ12 is cf.QuantizeIQ12.
	storeIQ12 func(dst []byte, src []complex64, gain float32)
	// correlateComb is correlateComb, with len(p) == len(x) > 0.
	correlateComb func(acc, x, p []complex64, k, group int)
}

// simd is the platform's vector kernels, nil where the build has none or
// the CPU/OS cannot run them. It is set once at package init and
// afterwards only flipped by tests (forceGoKernels).
var simd *stageKernels

// Kernel reports which stage kernels a plan runs in this process:
// "avx2" or "generic" (the portable Go loops).
func Kernel() string {
	if simd != nil {
		return "avx2"
	}
	return "generic"
}
