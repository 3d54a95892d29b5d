package ldpc

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/perfgate"
)

// Kernel A/B on rotating inputs (DESIGN §13). The repo-root Decode_ pairs
// replay one LLR vector, which the branch predictor memorises: the Go
// kernels' data-dependent `a < min1` / `idx == e` branches then
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
// decode's fixed term — the LLR copy and sign pack, the rotate-and-XOR
// syndrome on the packed words, the unpack of the information bits — and
// Decode_AVX2 minus it, per iteration, the layer kernel, the sign pack
// and the syndrome walk (DESIGN §13).
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

// rotatingDecode returns a function that decodes the next of the
// rotating blocks at lifting size z per call and returns its iterations.
func rotatingDecode(z int, sigma float64) func() int {
	code := MustNew(Rate13, z)
	dec := NewDecoder(code)
	dec.Alg = NormalizedMinSum
	llrs := rotatingLLRs(code, sigma)
	out := make([]byte, code.K())
	next := 0
	return func() int {
		r := dec.Decode(out, llrs[next], 5)
		next = (next + 1) % rotatingBlocks
		return r.Iterations
	}
}

func benchDecodeRotating(b *testing.B, sigma float64) {
	for _, z := range []int{27, 104} {
		b.Run(fmt.Sprintf("Z%d", z), func(b *testing.B) {
			decode := rotatingDecode(z, sigma)
			iters := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				iters += decode()
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

// BenchmarkDecode_Workers is Decode_AVX2's Z27 workload placed the way
// the engine places it (DESIGN §13, Scratch ownership): one decoder per
// P, allocated back to back on one goroutine as core's newWorker does,
// interleaved with Z-float fillers that one extra goroutine keeps
// writing, and every P decoding its own rotating blocks at once. us/block
// is P × wall time per block, the per-core cost to set beside
// Decode_AVX2/Z27: it matches it only while no decoder shares a cache
// line with another core's writes.
func BenchmarkDecode_Workers(b *testing.B) {
	const z = 27
	code := MustNew(Rate13, z)
	llrs := rotatingLLRs(code, rotatingSigma)
	procs := runtime.GOMAXPROCS(0)
	decs := make([]*Decoder, procs)
	fillers := [][]float32{make([]float32, z)}
	for i := range decs {
		decs[i] = NewDecoder(code)
		decs[i].Alg = NormalizedMinSum
		fillers = append(fillers, make([]float32, z))
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for v := 0; ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, f := range fillers {
				for j := range f {
					f[j] = float32(v)
				}
			}
			runtime.Gosched()
		}
	}()
	var claimed, iters atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(claimed.Add(1) - 1)
		dec, out := decs[w], make([]byte, code.K())
		next, n := w, 0
		for pb.Next() {
			n += dec.Decode(out, llrs[next], 5).Iterations
			next = (next + 1) % rotatingBlocks
		}
		iters.Add(int64(n))
	})
	b.StopTimer()
	close(stop)
	writer.Wait()
	b.ReportMetric(float64(procs)*float64(b.Elapsed().Microseconds())/float64(b.N), "us/block")
	b.ReportMetric(float64(iters.Load())/float64(b.N), "iters/op")
}

// BenchmarkKernelGate is the decode kernels' perf gate (`make perf`):
// Go/vector ratios measured in one process by alternating the two sides
// over gateRounds rounds of one pass over the rotating blocks each. The
// Z27/Z104 rows are Decode_PureGo/_AVX2 on the rotating workload (the
// layer kernel, the per-iteration sign pack and the prologue's load); the
// Z27-codeword row is Decode_Codeword's fixed term, where the vector side
// differs only in loadLLR's copy and sign pack. Only ratios are checked,
// so host speed cannot move them much. On a 2-vCPU AVX2 VM the medians
// read 11× at Z27, 10.8× at Z104 and 3.1× on codewords; each floor sits
// below half of that and fails when the vector kernels lose most of their
// lead.
func BenchmarkKernelGate(b *testing.B) {
	if Kernel() == "generic" {
		b.Skip("Go loops only: no vector kernels to gate")
	}
	const gateRounds = 11
	for _, g := range []struct {
		name  string
		z     int
		sigma float64
		floor float64
	}{
		{"Z27", 27, rotatingSigma, 5},
		{"Z104", 104, rotatingSigma, 5},
		{"Z27-codeword", 27, codewordSigma, 1.5},
	} {
		decode := rotatingDecode(g.z, g.sigma)
		batch := func() {
			for i := 0; i < rotatingBlocks; i++ {
				decode()
			}
		}
		goSide := func() {
			defer forceGoKernels()()
			batch()
		}
		ratio := perfgate.Ratio(gateRounds, goSide, batch)
		b.ReportMetric(ratio, g.name+"-x")
		if ratio < g.floor {
			b.Fatalf("%s: vector kernels %.2f× the Go loops, floor %.1f×", g.name, ratio, g.floor)
		}
	}
}
