package modulation

// Kernel selection for the SoA soft demodulator (DESIGN §9):
// DemodulateSoftSoA's per-coordinate scan (axisLLR) has an AVX2
// implementation (demod_amd64.s), chosen by the rule in the internal/cpu
// package doc. Both produce the same LLR bits for every input.

// simdSoA is the platform's vector implementation of the SoA kernel over
// the whole groups of four columns of a users×nsc tile (nsc >= 4, users
// >= 1), nil where the build has none or the CPU/OS cannot run it. It is
// set once at package init and afterwards only flipped by tests
// (forceGoKernels).
var simdSoA func(t *Table, dst []float32, tile []complex64, users, nsc int, inv float32)

// Kernel reports which kernel DemodulateSoftSoA runs in this process:
// "avx2" or "generic" (the portable Go loop). DemodulateSoft is the Go
// loop everywhere.
func Kernel() string {
	if simdSoA != nil {
		return "avx2"
	}
	return "generic"
}
