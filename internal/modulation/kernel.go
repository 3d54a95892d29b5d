package modulation

// Kernel selection for the SoA soft demodulator (DESIGN §9).
//
// DemodulateSoftSoA's per-coordinate scan (axisLLR) has a hand-vectorised
// implementation on amd64 (demod_amd64.s). Which one runs is decided by
// what the process can observe — the GOARCH it was built for and, at
// init, a CPUID/XGETBV probe — never by a user option, the same rule as
// ldpc.Kernel (DESIGN §13) and fft.Impl (DESIGN §10): a host that cannot
// run the fast kernel falls back silently but visibly (Kernel is carried
// by obs.Metrics.DemodKernel, agora_demod_kernel_info and the cmd/agora
// start-up line). Both produce the same LLR bits for every input, so
// nothing downstream — decoder iteration counts included — can tell them
// apart except by the clock.

// simdSoA is the platform's vector implementation of the SoA kernel over
// the whole groups of four columns of a users×nsc tile (nsc >= 4, users
// >= 1), nil where the build has none or the CPU/OS cannot run it. It is
// set once at package init and afterwards only flipped by tests
// (forEachKernel) to run the suites against each available kernel.
var simdSoA func(t *Table, dst []float32, tile []complex64, users, nsc int, inv float32)

// simdName names simdSoA's instruction set ("avx2").
var simdName string

// Kernel reports which kernel DemodulateSoftSoA runs in this process:
// "avx2" or "generic" (the portable Go loop). DemodulateSoft is the Go
// loop everywhere.
func Kernel() string {
	if simdSoA != nil {
		return simdName
	}
	return "generic"
}
