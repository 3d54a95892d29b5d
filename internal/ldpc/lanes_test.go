package ldpc

import (
	"math/rand"
	"testing"
)

// laneSweepZ is the lifting-size sweep for the lane/legacy equivalence
// property: both support bounds (2, 512), the paper's sizes (104, 384),
// powers of two (where the rotation split is even), and odd/prime sizes
// (where every shift produces two ragged segments).
var laneSweepZ = []int{2, 3, 4, 5, 7, 8, 13, 16, 31, 63, 64, 104, 127, 128, 255, 256, 384, 511, 512}

// laneSweepZShort trims the sweep for -short runs (the -race pass).
var laneSweepZShort = []int{2, 5, 16, 63, 104, 257, 512}

// noisyLLR returns LLRs for a random codeword perturbed with unit
// Gaussian noise — enough corruption that decoding runs several real
// iterations but normally still converges.
func noisyLLR(rng *rand.Rand, code *Code) []float32 {
	info := randInfo(rng, code.K())
	cw := make([]byte, code.N())
	code.Encode(cw, info)
	llr := cleanLLR(cw, 4)
	for i := range llr {
		llr[i] += float32(rng.NormFloat64())
	}
	return llr
}

// garbageLLR returns pure-noise LLRs: decoding exhausts every iteration
// and fails, exercising the non-converging path of both kernels.
func garbageLLR(rng *rand.Rand, code *Code) []float32 {
	llr := make([]float32, code.N())
	for i := range llr {
		llr[i] = float32(rng.NormFloat64())
	}
	return llr
}

// TestLaneDecodeEquivalence is the tentpole's correctness contract: for
// every supported rate and a lifting-size sweep covering both bounds and
// both parities, the lane-major kernel and the legacy check-major path
// must produce an identical (info, Result) pair — compared exactly, not
// within tolerance — for both min-sum variants of the float decoder and
// for the int8 decoder, on both decodable and garbage inputs.
func TestLaneDecodeEquivalence(t *testing.T) { forEachKernel(t, testLaneDecodeEquivalence) }

func testLaneDecodeEquivalence(t *testing.T) {
	zs := laneSweepZ
	if testing.Short() {
		zs = laneSweepZShort
	}
	rng := rand.New(rand.NewSource(42))
	for _, rate := range []Rate{Rate13, Rate23, Rate89} {
		for _, z := range zs {
			code := MustNew(rate, z)
			inputs := [][]float32{noisyLLR(rng, code), garbageLLR(rng, code)}
			for li, llr := range inputs {
				for _, alg := range []Alg{OffsetMinSum, NormalizedMinSum} {
					lane := NewDecoder(code)
					legacy := NewDecoder(code)
					lane.Alg, legacy.Alg = alg, alg
					legacy.Legacy = true
					outL := make([]byte, code.K())
					outC := make([]byte, code.K())
					resL := lane.Decode(outL, llr, 6)
					resC := legacy.Decode(outC, llr, 6)
					if resL != resC {
						t.Fatalf("rate %v Z=%d alg=%d input=%d: lane %+v != legacy %+v",
							rate, z, alg, li, resL, resC)
					}
					for i := range outL {
						if outL[i] != outC[i] {
							t.Fatalf("rate %v Z=%d alg=%d input=%d: info bit %d differs",
								rate, z, alg, li, i)
						}
					}
				}
				// int8 decoder (offset min-sum only, its one rule).
				lane8 := NewDecoder8(code)
				legacy8 := NewDecoder8(code)
				legacy8.Legacy = true
				q := make([]int8, code.N())
				lane8.QuantizeLLR(q, llr)
				outL := make([]byte, code.K())
				outC := make([]byte, code.K())
				resL := lane8.Decode(outL, q, 6)
				resC := legacy8.Decode(outC, q, 6)
				if resL != resC {
					t.Fatalf("rate %v Z=%d input=%d: int8 lane %+v != legacy %+v",
						rate, z, li, resL, resC)
				}
				for i := range outL {
					if outL[i] != outC[i] {
						t.Fatalf("rate %v Z=%d input=%d: int8 info bit %d differs",
							rate, z, li, i)
					}
				}
			}
		}
	}
}

// TestLaneMessageLayoutInvariant pins the identity the lane kernel's
// indexing relies on: the float decoder's rowOff is exactly Z times eOff,
// so r[rowOff[i] + e*Z + lane] is the global lane-major r[edge*Z + lane].
func TestLaneMessageLayoutInvariant(t *testing.T) {
	for _, rate := range []Rate{Rate13, Rate23, Rate89} {
		code := MustNew(rate, 24)
		d := NewDecoder(code)
		d8 := NewDecoder8(code)
		for i := range d.rowOff {
			if d.rowOff[i] != code.Z*d.eOff[i] {
				t.Fatalf("rate %v: rowOff[%d]=%d != Z*eOff=%d", rate, i, d.rowOff[i], code.Z*d.eOff[i])
			}
			if d8.rowOff[i] != code.Z*d8.eOff[i] {
				t.Fatalf("rate %v: int8 rowOff[%d]=%d != Z*eOff=%d", rate, i, d8.rowOff[i], code.Z*d8.eOff[i])
			}
		}
	}
}

// TestLaneDecoderReuse mirrors TestDecoderReuse on the lane path: garbage
// then clean through one decoder, no state leakage.
func TestLaneDecoderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	code := MustNew(Rate23, 64)
	for _, mk := range []func() (func([]byte, []float32, int) Result, string){
		func() (func([]byte, []float32, int) Result, string) {
			d := NewDecoder(code)
			return d.Decode, "float"
		},
		func() (func([]byte, []float32, int) Result, string) {
			d := NewDecoder8(code)
			q := make([]int8, code.N())
			return func(info []byte, llr []float32, it int) Result {
				d.QuantizeLLR(q, llr)
				return d.Decode(info, q, it)
			}, "int8"
		},
	} {
		decode, name := mk()
		out := make([]byte, code.K())
		decode(out, garbageLLR(rng, code), 3)
		info := randInfo(rng, code.K())
		cw := make([]byte, code.N())
		code.Encode(cw, info)
		if res := decode(out, cleanLLR(cw, 10), 5); !res.OK {
			t.Fatalf("%s: clean decode failed after garbage decode", name)
		}
		for i := range info {
			if out[i] != info[i] {
				t.Fatalf("%s: bit %d wrong; decoder state leaked", name, i)
			}
		}
	}
}
