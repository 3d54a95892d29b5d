package fft

// Implementation selection for the split-radix transform (DESIGN §10).
//
// The stage loops of stages4 and the IQ12 front end of ForwardIQ12 have a
// hand-vectorised implementation on amd64 (stages_amd64.s). Which one
// runs is decided by what the process can observe — the GOARCH it was
// built for and, at init, a CPUID/XGETBV probe — never by a user option,
// the same rule as ldpc.Kernel (DESIGN §13): a host that cannot run the
// fast kernels falls back silently but visibly (Impl is exported through
// RunSummary, the cmd/agora start-up line and agora_fft_kernel_info).
// Both implementations produce the same bits after every stage, so
// nothing downstream can tell them apart except by the clock.

// stageKernels is a vector implementation of the two loops a plan spends
// its time in.
type stageKernels struct {
	name string // instruction set, "avx2"
	// butterflies is stages4 plus, when scale is set, the inverse
	// transform's 1/n folded into the last stage.
	butterflies func(p *Plan, x []complex64, inverse, scale bool)
	// loadIQ12 is gatherIQ12.
	loadIQ12 func(p *Plan, dst []complex64, payload []byte, cpLen int)
}

// simd is the platform's vector kernels, nil where the build has none or
// the CPU/OS cannot run them. It is set once at package init and
// afterwards only flipped by tests (forEachKernel) to run the suites
// against each available implementation.
var simd *stageKernels

// Impl reports which stage kernels a plan runs in this process: "avx2"
// or "generic" (the portable Go loops).
func Impl() string {
	if simd != nil {
		return simd.name
	}
	return "generic"
}
