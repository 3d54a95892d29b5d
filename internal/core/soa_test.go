package core

import (
	"bytes"
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
// scUsed is not a multiple of DemodBlockSize, ZFGroupSize or the grid's
// mat.TileCols — and three users keep the SoA interleave asymmetric.
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
// Go DemodulateSoft, into a per-user [user][sc*order+bit] layout. It
// gathers each whole ZF group into a group×M subcarrier-major matrix with
// its own index formula for the grid — sample (sc, a) at
// (sc/8)·8M + 8a + sc%8 in the tiled grid, a·Q + sc in the antenna-major
// one (DisableMemOpt) — and multiplies it with mat.PlanBlockMul (the
// engine cuts groups into strips of one tile and reads them in place).
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
	y := make([]complex64, cfg.ZFGroupSize*m)
	mul := mat.PlanBlockMul(true, k)
	for g := 0; g < cfg.ZFGroups(); g++ {
		lo, hi := b.groupBounds(g)
		hi = min(hi, eng.scUsed)
		nb := hi - lo
		if nb <= 0 {
			break
		}
		for j := 0; j < nb; j++ {
			sc := lo + j
			for a := 0; a < m; a++ {
				if eng.opts.DisableMemOpt {
					y[j*m+a] = b.dataFreqAnt[0][sym][a*q+sc]
				} else {
					y[j*m+a] = b.dataFreqTile[0][sym][sc/8*8*m+a*8+sc%8]
				}
			}
		}
		yt := mat.M{Rows: nb, Cols: m, Data: y[:nb*m]}
		mul(&mat.M{Rows: k, Cols: nb, Data: x[:k*nb]}, b.eq[0][g], &yt)
		for j := 0; j < nb; j++ {
			for u := 0; u < k; u++ {
				tab.DemodulateSoft(llr[u][(lo+j)*order:(lo+j+1)*order], x[u*nb+j:u*nb+j+1], nominalNoise)
			}
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
				scUsed%mat.TileCols == 0 || scUsed >= cfg.DataSubcarriers {
				t.Fatalf("geometry lost its odd tails: scUsed=%d", scUsed)
			}
			requireReferenceLLR(t, eng, gen)
		})
	}
}

// oddCfg is a geometry whose every cut falls inside a grid tile: Q = 300
// and scUsed = 275 (Z = 44) are not multiples of mat.TileCols, ZF groups
// of 12 subcarriers end mid-tile, and k users run the tile plan of their
// row count (2: the Go loop; 8: the four-row plan).
func oddCfg(k int) frame.Config {
	return frame.Config{
		Antennas:        16,
		Users:           k,
		OFDMSize:        512,
		DataSubcarriers: 300,
		Order:           modulation.QAM16,
		Rate:            ldpc.Rate89,
		LiftingZ:        44,
		DecodeIter:      8,
		Pilots:          frame.FreqOrthogonal,
		Symbols:         "PUU",
		ZFGroupSize:     12,
		DemodBlockSize:  32,
		FFTBatch:        2,
		ZFBatch:         3,
	}
}

// TestSoAScalarPathEquivalence holds the layout and store ablations to
// the default engine's bits. On one seed, DisableMemOpt (antenna-major
// grid, each strip copied into a worker tile before the same multiply and
// demod), DisableDirectStore (FFT output staged before the store) and
// both together must give the default engine's llrSC, decoded bits and
// decode iterations exactly, and match the reference receiver. The
// odd-geometry subtest repeats the default and DisableMemOpt engines on
// oddCfg's tile-crossing cuts at K = 2 and 8.
func TestSoAScalarPathEquivalence(t *testing.T) {
	const seed = 78
	cfg := soaCfg(modulation.QAM16)
	base, _, _ := runOneFrame(t, cfg, Options{Workers: 2}, seed)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"no-memopt", Options{Workers: 2, DisableMemOpt: true}},
		{"no-directstore", Options{Workers: 2, DisableDirectStore: true}},
		{"no-memopt-no-directstore", Options{Workers: 2, DisableMemOpt: true, DisableDirectStore: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, gen := runOneFrame(t, cfg, tc.opts, seed)
			requireReferenceLLR(t, eng, gen)
			requireSameEngine(t, eng, base)
		})
	}
	t.Run("odd-geometry", func(t *testing.T) {
		for _, k := range []int{2, 8} {
			cfg := oddCfg(k)
			def, res, gen := runOneFrame(t, cfg, Options{Workers: 2}, seed)
			if res.Dropped {
				t.Fatalf("K=%d: dropped frame", k)
			}
			if q, sc := cfg.DataSubcarriers, def.scUsed; q%mat.TileCols == 0 || sc%mat.TileCols == 0 ||
				sc >= q || cfg.ZFGroupSize%mat.TileCols == 0 {
				t.Fatalf("K=%d: geometry lost its mid-tile cuts: Q=%d scUsed=%d", k, q, sc)
			}
			requireReferenceLLR(t, def, gen)
			eng, _, gen := runOneFrame(t, cfg, Options{Workers: 2, DisableMemOpt: true}, seed)
			requireReferenceLLR(t, eng, gen)
			requireSameEngine(t, eng, def)
		}
	})
}

// requireSameEngine checks eng's uplink llrSC, decoded bits and decode
// iterations against base's, which ran the same frame.
func requireSameEngine(t *testing.T, eng, base *Engine) {
	t.Helper()
	cfg := &eng.cfg
	for sym := 0; sym < cfg.NumSymbols(); sym++ {
		if cfg.SymbolAt(sym) != frame.Uplink {
			continue
		}
		want, got := base.buf.llrSC[0][sym], eng.buf.llrSC[0][sym]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sym %d: llrSC[%d] = %g, default engine %g", sym, i, got[i], want[i])
			}
		}
		for u := 0; u < cfg.Users; u++ {
			if !bytes.Equal(eng.buf.decoded[0][sym][u], base.buf.decoded[0][sym][u]) {
				t.Fatalf("sym %d user %d: decoded bits differ from the default engine", sym, u)
			}
		}
	}
	if got, want := eng.met.DecodeIters.Load(), base.met.DecodeIters.Load(); got != want {
		t.Fatalf("%d decode iterations, default engine %d", got, want)
	}
}

// demodBenchEngine builds an engine of cfg (whose first symbol is the
// pilot and second an uplink symbol) with slot 0's equalizers and
// post-FFT grid (whichever layout opts select) filled directly, so the
// demod kernel benchmarks run without the manager or transport.
func demodBenchEngine(b *testing.B, cfg frame.Config, opts Options) (*Engine, int) {
	b.Helper()
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
	sym := 1 // first uplink symbol of "PU..."
	grid := eng.buf.dataFreqTile[0][sym]
	if opts.DisableMemOpt {
		grid = eng.buf.dataFreqAnt[0][sym]
	}
	for i := range grid {
		grid[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return eng, sym
}

// benchDemodSymbol runs the full demod task sweep of one uplink symbol
// of cfg per iteration — every DemodBlockSize tile up to scUsed — through
// whichever kernel path opts select. ReportAllocs guards the zero-alloc
// contract of the hot path.
func benchDemodSymbol(b *testing.B, cfg frame.Config, opts Options) {
	eng, sym := demodBenchEngine(b, cfg, opts)
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
	benchDemodSymbol(b, frame.Default64x16(), Options{Workers: 1})
}

// BenchmarkDemodSymbol_Small is the same sweep at smallCfg's 8×2 (the
// small_frames geometry): the equalizer on the two-row tile.
func BenchmarkDemodSymbol_Small(b *testing.B) {
	benchDemodSymbol(b, smallCfg(), Options{Workers: 1})
}

// BenchmarkDemodSymbol_AntennaMajor is the same sweep on the
// antenna-major grid of DisableMemOpt: the gap to _SoAFused is what the
// layout costs demod, the strided strip gather and nothing else.
func BenchmarkDemodSymbol_AntennaMajor(b *testing.B) {
	benchDemodSymbol(b, frame.Default64x16(), Options{Workers: 1, DisableMemOpt: true})
}

// BenchmarkDecodeGather measures the strided per-user LLR gather on the
// decoder input path.
func BenchmarkDecodeGather(b *testing.B) {
	eng, sym := demodBenchEngine(b, frame.Default64x16(), Options{Workers: 1})
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
// demod tasks run on a 64-QAM cell.
func TestDemodKernelReported(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"default", Options{Workers: 1}, modulation.Kernel()},
		{"DisableMemOpt", Options{Workers: 1, DisableMemOpt: true}, modulation.Kernel()},
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
