package ldpc

// Kernel selection for the default float32 layered decode (DESIGN §13):
// iterateLayered's three per-edge loops have an AVX2 implementation
// (lanes_amd64.s), chosen by the rule in the internal/cpu package doc.
// Both produce bit-identical posteriors, messages, hard decisions and
// syndrome state after every layer.

// simdIterate is the platform's vector implementation of iterateLayered,
// nil where the build has none or the CPU/OS cannot run it. It is set
// once at package init and afterwards only flipped by tests
// (forceGoKernels).
var simdIterate func(d *Decoder, scl, off float32)

// Kernel reports which layer kernels Decoder.Decode's default path runs
// in this process: "avx2" or "generic" (the portable Go loops).
func Kernel() string {
	if simdIterate != nil {
		return "avx2"
	}
	return "generic"
}
