package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/modulation"
	"repro/internal/workload"
)

// soaCfg builds a configuration for the layout-equivalence test: the
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
// test can inspect slot 0's buffers (Stop leaves buffer contents intact).
func runOneFrame(t *testing.T, cfg frame.Config, opts Options, seed int64) (*Engine, FrameResult) {
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
	return eng, res
}

// TestSoALLRLayoutEquivalence is the layout ablation's correctness
// contract: with identical input frames, the default subcarrier-major SoA
// path (fused equalize+demod) and the DisableSoALLR AoS path must produce
// bit-identical LLRs for every user, subcarrier and bit — compared with
// ==, not a tolerance — and identical decode results, across all four QAM
// orders and a geometry with odd tile tails everywhere. Where the SoA
// side runs the vector demod kernel (DESIGN §21) this is a
// cross-implementation check as well: the AoS side is the Go loop on
// every host.
func TestSoALLRLayoutEquivalence(t *testing.T) {
	for _, o := range []modulation.Order{
		modulation.QPSK, modulation.QAM16, modulation.QAM64, modulation.QAM256,
	} {
		o := o
		t.Run(o.String(), func(t *testing.T) {
			cfg := soaCfg(o)
			soaEng, soaRes := runOneFrame(t, cfg, Options{Workers: 2}, 77)
			aosEng, aosRes := runOneFrame(t, cfg, Options{Workers: 2, DisableSoALLR: true}, 77)
			if soaRes.Dropped || aosRes.Dropped {
				t.Fatalf("dropped frame: soa=%v aos=%v", soaRes.Dropped, aosRes.Dropped)
			}
			// Guard the geometry claim: odd tails at every tiling level, and
			// a padding region past scUsed that demod must clamp away.
			scUsed := soaEng.scUsed
			if scUsed%cfg.DemodBlockSize == 0 || scUsed%cfg.ZFGroupSize == 0 ||
				scUsed%fuseStripCols == 0 || scUsed >= cfg.DataSubcarriers {
				t.Fatalf("geometry lost its odd tails: scUsed=%d", scUsed)
			}
			k := cfg.Users
			order := int(cfg.Order)
			for sym := 0; sym < cfg.NumSymbols(); sym++ {
				if cfg.SymbolAt(sym) != frame.Uplink {
					continue
				}
				soa := soaEng.buf.llrSC[0][sym]
				for u := 0; u < k; u++ {
					aos := aosEng.buf.llr[0][sym][u]
					for sc := 0; sc < scUsed; sc++ {
						for b := 0; b < order; b++ {
							got := soa[(sc*k+u)*order+b]
							want := aos[sc*order+b]
							if got != want {
								t.Fatalf("sym %d user %d sc %d bit %d: SoA LLR %g != AoS %g",
									sym, u, sc, b, got, want)
							}
						}
					}
					for i, v := range aosEng.buf.decoded[0][sym][u] {
						if soaEng.buf.decoded[0][sym][u][i] != v {
							t.Fatalf("sym %d user %d: decoded bit %d differs", sym, u, i)
						}
					}
					if soaEng.buf.decodeOK[0][sym][u] != aosEng.buf.decodeOK[0][sym][u] {
						t.Fatalf("sym %d user %d: decodeOK differs", sym, u)
					}
				}
			}
		})
	}
}

// TestSoAScalarPathEquivalence covers the non-blocked engine paths under
// the SoA layout: the scalar matvec fallback (DisableBlockGemm) and the
// strided-gather fallback (DisableMemOpt) must match the AoS scalar path
// bit for bit too.
func TestSoAScalarPathEquivalence(t *testing.T) {
	cfg := soaCfg(modulation.QAM16)
	base := Options{Workers: 2, DisableBlockGemm: true, DisableMemOpt: true}
	soaEng, _ := runOneFrame(t, cfg, base, 78)
	aos := base
	aos.DisableSoALLR = true
	aosEng, _ := runOneFrame(t, cfg, aos, 78)
	k := cfg.Users
	order := int(cfg.Order)
	scUsed := soaEng.scUsed
	for sym := 0; sym < cfg.NumSymbols(); sym++ {
		if cfg.SymbolAt(sym) != frame.Uplink {
			continue
		}
		soa := soaEng.buf.llrSC[0][sym]
		for u := 0; u < k; u++ {
			lane := aosEng.buf.llr[0][sym][u]
			for sc := 0; sc < scUsed; sc++ {
				for b := 0; b < order; b++ {
					if soa[(sc*k+u)*order+b] != lane[sc*order+b] {
						t.Fatalf("scalar path: sym %d user %d sc %d bit %d differ",
							sym, u, sc, b)
					}
				}
			}
		}
	}
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
	blocks := eng.demodBlocksUsed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for blk := 0; blk < blocks; blk++ {
			w.runDemod(0, uint16(sym), blk)
		}
	}
}

// BenchmarkDemodSymbol_SoAFused / _AoS are the kernel-level ablation pair
// for the LLR layout (engine-level pair: Table4 in the root package).
func BenchmarkDemodSymbol_SoAFused(b *testing.B) {
	benchDemodSymbol(b, Options{Workers: 1})
}

func BenchmarkDemodSymbol_AoS(b *testing.B) {
	benchDemodSymbol(b, Options{Workers: 1, DisableSoALLR: true})
}

// BenchmarkDecodeGather measures the strided per-user LLR gather the SoA
// layout adds to the decoder input path (AoS reads its lane directly).
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

// TestDemodKernelReported checks the engine names the demod kernel its
// demod tasks run, and that the AoS layout and the dummy kernels report
// the Go loop.
func TestDemodKernelReported(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"default", Options{Workers: 1}, modulation.Kernel()},
		{"DisableBlockGemm", Options{Workers: 1, DisableBlockGemm: true}, modulation.Kernel()},
		{"DisableSoALLR", Options{Workers: 1, DisableSoALLR: true}, "generic"},
		{"DisableBlockGemm+DisableSoALLR", Options{Workers: 1, DisableBlockGemm: true, DisableSoALLR: true}, "generic"},
		{"DummyKernels", Options{Workers: 1, DummyKernels: true}, "generic"},
	} {
		eng, err := NewEngine(soaCfg(modulation.QAM64), tc.opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.MetricsSnapshot().DemodKernel; got != tc.want {
			t.Fatalf("%s: engine reports demod kernel %q, want %q", tc.name, got, tc.want)
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
