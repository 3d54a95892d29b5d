package ldpc

// Kernel selection for the default float32 layered decode (DESIGN §13):
// iterateLayered's layers, loadLLR's copy and sign pack and packHard's
// sign pack have an AVX2 implementation (lanes_amd64.s), chosen by the
// rule in the internal/cpu package doc. Both produce bit-identical
// posteriors, messages and hard decisions on lanes [0, Z) after every
// layer.

// simdIterate, simdLoad and simdSigns are the platform's vector
// implementations of iterateLayered, of loadLLR's Go loop and of
// packHard's sign pack, nil where the build has none or the CPU/OS cannot
// run them. They are set together once at package init and afterwards
// only flipped by tests (forceGoKernels).
var (
	simdIterate func(d *Decoder, first bool, scl, off float32)
	simdLoad    func(d *Decoder, llr []float32)
	simdSigns   func(d *Decoder)
)

// Kernel reports which layer kernels Decoder.Decode's default path runs
// in this process: "avx2" or "generic" (the portable Go loops).
func Kernel() string {
	if simdIterate != nil {
		return "avx2"
	}
	return "generic"
}
