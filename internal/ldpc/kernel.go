package ldpc

// Kernel selection for the default float32 layered decode (DESIGN §13).
//
// iterateLayered's three per-edge loops have a hand-vectorised
// implementation on amd64 (lanes_amd64.s). Which one runs is decided by
// what the process can observe — the GOARCH it was built for and, at
// init, a CPUID/XGETBV probe — never by a user option: an operator cannot
// ask for the slow kernel, and a host that cannot run the fast one falls
// back silently but visibly (Kernel is exported through RunSummary, the
// cmd/agora start-up line and agora_decode_kernel_info). Both kernels
// produce bit-identical posteriors, messages, hard decisions and syndrome
// state after every layer, so nothing downstream can tell them apart
// except by the clock.

// simdIterate is the platform's vector implementation of iterateLayered,
// nil where the build has none or the CPU/OS cannot run it. It is set
// once at package init and afterwards only flipped by tests (forEachKernel)
// to run the suites against each available kernel.
var simdIterate func(d *Decoder, scl, off float32)

// simdName names simdIterate's instruction set ("avx2").
var simdName string

// Kernel reports which layer kernels Decoder.Decode's default path runs
// in this process: "avx2" or "generic" (the portable Go loops).
func Kernel() string {
	if simdIterate != nil {
		return simdName
	}
	return "generic"
}
