package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/mat"
	"repro/internal/modulation"
	"repro/internal/workload"
)

// soaCfg builds a configuration for the LLR equivalence tests: the
// geometry is chosen so the demod tiling has odd tails at every level —
// scUsed is not a multiple of DemodBlockSize, ZFGroupSize or
// fuseStripCols — and three users keep the SoA interleave asymmetric.
func soaCfg(o modulation.Order) frame.Config {
	return frame.Config{
		Antennas:        8,
		Users:           3,
		OFDMSize:        256,
		DataSubcarriers: 128,
		Order:           o,
		Rate:            ldpc.Rate89,
		DecodeIter:      8,
		Pilots:          frame.FreqOrthogonal,
		Symbols:         "PUU",
		ZFGroupSize:     16,
		DemodBlockSize:  32,
		FFTBatch:        2,
		ZFBatch:         3,
	}
}

// runOneFrame pushes frame 0 from a seeded generator through a fresh
// engine, waits for its result, stops the engine and returns it so the
// test can inspect slot 0's buffers (Stop leaves buffer contents intact),
// together with the generator that holds the frame's ground truth.
func runOneFrame(t *testing.T, cfg frame.Config, opts Options, seed int64) (*Engine, FrameResult, *workload.Generator) {
	t.Helper()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 28, seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, opts, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	if err := gen.EmitFrame(0, ring.Side(0).Send); err != nil {
		eng.Stop()
		t.Fatal(err)
	}
	var res FrameResult
	select {
	case res = <-eng.Results():
	case <-time.After(30 * time.Second):
		eng.Stop()
		t.Fatal("frame timed out")
	}
	eng.Stop()
	return eng, res, gen
}

// referenceLLR is an independent receiver for one uplink symbol of slot
// 0: it equalizes the engine's own post-FFT grid with the engine's own
// equalizers and demodulates each user's symbols one at a time with the
// Go DemodulateSoft, into a per-user [user][sc*order+bit] layout. On the
// subcarrier-major grid it multiplies each whole ZF-group tile with
// mat.PlanBlockMul (the engine cuts tiles into strips); on the
// antenna-major grid (DisableMemOpt) it runs one mat.PlanMatVec per
// subcarrier.
func referenceLLR(eng *Engine, sym int) [][]float32 {
	cfg := &eng.cfg
	b := eng.buf
	m, k, q, order := cfg.Antennas, cfg.Users, cfg.DataSubcarriers, int(cfg.Order)
	tab := modulation.Get(cfg.Order)
	llr := make([][]float32, k)
	for u := range llr {
		llr[u] = make([]float32, eng.scUsed*order)
	}
	x := make([]complex64, k*cfg.ZFGroupSize)
	demod := func(sc int, col func(u int) []complex64) {
		for u := 0; u < k; u++ {
			tab.DemodulateSoft(llr[u][sc*order:(sc+1)*order], col(u), nominalNoise)
		}
	}
	if eng.opts.DisableMemOpt {
		matvec := mat.PlanMatVec(true)
		y := make([]complex64, m)
		for sc := 0; sc < eng.scUsed; sc++ {
			for a := range y {
				y[a] = b.dataFreqAnt[0][sym][a*q+sc]
			}
			matvec(x[:k], b.eq[0][sc/cfg.ZFGroupSize], y)
			demod(sc, func(u int) []complex64 { return x[u : u+1] })
		}
		return llr
	}
	mul := mat.PlanBlockMul(true, k)
	for g := 0; g < cfg.ZFGroups(); g++ {
		lo, hi := b.groupBounds(g)
		hi = min(hi, eng.scUsed)
		nb := hi - lo
		if nb <= 0 {
			break
		}
		yt := mat.M{Rows: nb, Cols: m, Data: b.dataFreqSC[0][sym][lo*m : hi*m]}
		mul(&mat.M{Rows: k, Cols: nb, Data: x[:k*nb]}, b.eq[0][g], &yt)
		for j := 0; j < nb; j++ {
			demod(lo+j, func(u int) []complex64 { return x[u*nb+j : u*nb+j+1] })
		}
	}
	return llr
}

// requireReferenceLLR checks every uplink symbol's llrSC against
// referenceLLR with ==, not a tolerance, and the decoded bits against the
// generator's ground truth.
func requireReferenceLLR(t *testing.T, eng *Engine, gen *workload.Generator) {
	t.Helper()
	cfg := &eng.cfg
	k, order := cfg.Users, int(cfg.Order)
	decoded := make([][][]byte, k)
	for u := range decoded {
		decoded[u] = make([][]byte, cfg.NumSymbols())
	}
	for sym := 0; sym < cfg.NumSymbols(); sym++ {
		if cfg.SymbolAt(sym) != frame.Uplink {
			continue
		}
		want := referenceLLR(eng, sym)
		got := eng.buf.llrSC[0][sym]
		for u := 0; u < k; u++ {
			for sc := 0; sc < eng.scUsed; sc++ {
				for bit := 0; bit < order; bit++ {
					if g, w := got[(sc*k+u)*order+bit], want[u][sc*order+bit]; g != w {
						t.Fatalf("sym %d user %d sc %d bit %d: engine LLR %g != reference %g",
							sym, u, sc, bit, g, w)
					}
				}
			}
			decoded[u][sym] = eng.buf.decoded[0][sym][u]
		}
	}
	if bitErrs, bits, _, _ := gen.CompareUplink(decoded); bits == 0 || bitErrs != 0 {
		t.Fatalf("%d/%d decoded bits differ from the ground truth", bitErrs, bits)
	}
}

// TestSoALLRLayoutEquivalence is the engine-level contract of the fused
// equalize+demod path: its subcarrier-major SoA LLRs must equal
// referenceLLR's for every user, subcarrier and bit, across all four QAM
// orders and a geometry with odd tile tails everywhere, and the frame must
// decode to the transmitted bits. It is two cross-implementation checks
// at once: the SoA demod (the vector kernel where there is one, DESIGN §9)
// against the Go DemodulateSoft loop, and strip tiling against whole
// tiles.
func TestSoALLRLayoutEquivalence(t *testing.T) {
	for _, o := range []modulation.Order{
		modulation.QPSK, modulation.QAM16, modulation.QAM64, modulation.QAM256,
	} {
		o := o
		t.Run(o.String(), func(t *testing.T) {
			cfg := soaCfg(o)
			eng, res, gen := runOneFrame(t, cfg, Options{Workers: 2}, 77)
			if res.Dropped {
				t.Fatal("dropped frame")
			}
			// Guard the geometry claim: odd tails at every tiling level, and
			// a padding region past scUsed that demod must clamp away.
			scUsed := eng.scUsed
			if scUsed%cfg.DemodBlockSize == 0 || scUsed%cfg.ZFGroupSize == 0 ||
				scUsed%fuseStripCols == 0 || scUsed >= cfg.DataSubcarriers {
				t.Fatalf("geometry lost its odd tails: scUsed=%d", scUsed)
			}
			requireReferenceLLR(t, eng, gen)
		})
	}
}

// TestSoAScalarPathEquivalence covers the per-subcarrier demod path the
// antenna-major layout (DisableMemOpt) selects: strided gather, one
// matvec and one single-column SoA demod call per subcarrier must match
// the reference receiver bit for bit too.
func TestSoAScalarPathEquivalence(t *testing.T) {
	eng, _, gen := runOneFrame(t, soaCfg(modulation.QAM16), Options{Workers: 2, DisableMemOpt: true}, 78)
	requireReferenceLLR(t, eng, gen)
}

// demodBenchEngine builds an engine at the paper's 64×16 scale with
// slot 0's equalizers and post-FFT grid filled directly, so the demod
// kernel benchmarks run without the manager or transport.
func demodBenchEngine(b *testing.B, opts Options) (*Engine, int) {
	b.Helper()
	cfg := frame.Default64x16()
	eng, err := NewEngine(cfg, opts, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for g := 0; g < cfg.ZFGroups(); g++ {
		v := eng.buf.eq[0][g].Data
		for i := range v {
			v[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
		}
	}
	sym := 1 // first uplink symbol of "PUUU..."
	grid := eng.buf.dataFreqSC[0][sym]
	for i := range grid {
		grid[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return eng, sym
}

// benchDemodSymbol runs the full demod task sweep of one uplink symbol
// per iteration — every DemodBlockSize tile up to scUsed — through
// whichever kernel path opts select. ReportAllocs guards the zero-alloc
// contract of the hot path.
func benchDemodSymbol(b *testing.B, opts Options) {
	eng, sym := demodBenchEngine(b, opts)
	w := eng.workers[0]
	blocks := eng.cfg.DemodBlocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for blk := 0; blk < blocks; blk++ {
			w.runDemod(0, uint16(sym), blk)
		}
	}
}

// BenchmarkDemodSymbol_SoAFused is the fused equalize+demod path over one
// uplink symbol at the paper's 64×16 scale.
func BenchmarkDemodSymbol_SoAFused(b *testing.B) {
	benchDemodSymbol(b, Options{Workers: 1})
}

// BenchmarkDecodeGather measures the strided per-user LLR gather on the
// decoder input path.
func BenchmarkDecodeGather(b *testing.B) {
	eng, sym := demodBenchEngine(b, Options{Workers: 1})
	w := eng.workers[0]
	k := eng.cfg.Users
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := 0; u < k; u++ {
			_ = w.userLLR(0, uint16(sym), u)
		}
	}
}

// gatherLLRCopy is the gather as one copy call per run — what gatherLLR's
// fixed-width loops replaced, kept as their oracle and as the baseline of
// BenchmarkUserLLRGather.
func gatherLLRCopy(dst, src []float32, order, stride, n int) {
	for i := 0; i < n; i++ {
		copy(dst[i*order:(i+1)*order], src[i*stride:i*stride+order])
	}
}

// TestGatherLLRMatchesCopy checks every order's loop moves exactly the
// runs the copy loop moves, for every user lane of a 3-user layout, and
// nothing past the n-th run.
func TestGatherLLRMatchesCopy(t *testing.T) {
	const users, n = 3, 37
	for _, order := range []int{2, 4, 6, 8} {
		stride := users * order
		src := make([]float32, n*stride)
		for i := range src {
			src[i] = float32(i + 1)
		}
		for u := 0; u < users; u++ {
			got := make([]float32, n*order+order)
			want := make([]float32, n*order+order)
			gatherLLR(got, src[u*order:], order, stride, n)
			gatherLLRCopy(want, src[u*order:], order, stride, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("order %d user %d: dst[%d] = %g, want %g", order, u, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkUserLLRGather is the decode-side gather of one code block at
// the reference cell's shape (4 users, 64-QAM, 304 subcarriers): the
// fixed-width loops against a copy call per subcarrier.
func BenchmarkUserLLRGather(b *testing.B) {
	const users, order, n = 4, 6, 304
	src := make([]float32, n*users*order)
	dst := make([]float32, n*order)
	for _, impl := range []struct {
		name string
		f    func(dst, src []float32, order, stride, n int)
	}{{"Fixed", gatherLLR}, {"Copy", gatherLLRCopy}} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(dst)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.f(dst, src[(i%users)*order:], order, users*order, n)
			}
		})
	}
}

// TestDemodKernelReported checks the engine names the demod kernel its
// demod tasks run on a 64-QAM cell, and that the dummy kernels, which run
// no demod, report none.
func TestDemodKernelReported(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"default", Options{Workers: 1}, modulation.Kernel()},
		{"DisableMemOpt", Options{Workers: 1, DisableMemOpt: true}, modulation.Kernel()},
		{"DummyKernels", Options{Workers: 1, DummyKernels: true}, ""},
	} {
		eng, err := NewEngine(soaCfg(modulation.QAM64), tc.opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		for _, r := range eng.MetricsSnapshot().Kernels {
			if r.Stage == "demod" {
				got = r.Kernel
			}
		}
		if got != tc.want {
			t.Fatalf("%s: engine reports demod kernel %q, want %q", tc.name, got, tc.want)
		}
	}
}
