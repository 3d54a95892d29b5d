package ldpc

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel A/B on rotating inputs (DESIGN §13). The repo-root Decode_ pairs
// replay one LLR vector, which the branch predictor memorises: the Go
// kernels' data-dependent `a < min1` / `idx == e` / flip branches then
// cost nothing and the pair under-reports what a decode costs inside the
// engine by about 2×. These rotate through rotatingBlocks distinct noisy
// codewords, at a noise level that needs 1.7–2.0 iterations per block
// (the benchmark's cell_edge operating point is 1.74), with the engine's decoder
// settings (normalized min-sum, 5-iteration cap).
const rotatingBlocks = 64

// rotatingSigma is the LLR noise (on ±4 channel LLRs) that needs 1.72
// mean iterations at R=1/3 Z=27 and 1.98 at Z=104.
const rotatingSigma = 2.05

// codewordSigma is the noise of BenchmarkDecode_Codeword's inputs: at 8σ
// no channel sign flips, so every block is a codeword at Decode's
// syndrome prologue and runs 0 iterations. That benchmark prices
// decode's fixed term — LLR load, hard decisions, syndrome walk, bit
// copy — and Decode_AVX2 minus it, per iteration, the layer kernels
// (DESIGN §13).
const codewordSigma = 0.5

func rotatingLLRs(code *Code, sigma float64) [][]float32 {
	rng := rand.New(rand.NewSource(19))
	out := make([][]float32, rotatingBlocks)
	for k := range out {
		cw := make([]byte, code.N())
		code.Encode(cw, randInfo(rng, code.K()))
		llr := cleanLLR(cw, 4)
		for i := range llr {
			llr[i] += float32(sigma * rng.NormFloat64())
		}
		out[k] = llr
	}
	return out
}

func benchDecodeRotating(b *testing.B, sigma float64) {
	for _, z := range []int{27, 104} {
		b.Run(fmt.Sprintf("Z%d", z), func(b *testing.B) {
			code := MustNew(Rate13, z)
			dec := NewDecoder(code)
			dec.Alg = NormalizedMinSum
			llrs := rotatingLLRs(code, sigma)
			out := make([]byte, code.K())
			iters := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				iters += dec.Decode(out, llrs[i%rotatingBlocks], 5).Iterations
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
		})
	}
}

func BenchmarkDecode_AVX2(b *testing.B) {
	if simdIterate == nil {
		b.Skip("no vector kernels on this CPU/GOARCH")
	}
	benchDecodeRotating(b, rotatingSigma)
}

func BenchmarkDecode_PureGo(b *testing.B) {
	defer forceGoKernels()()
	benchDecodeRotating(b, rotatingSigma)
}

func BenchmarkDecode_Codeword(b *testing.B) { benchDecodeRotating(b, codewordSigma) }
