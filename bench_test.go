package agora

// One benchmark per table and figure of the paper's evaluation (§6): each
// measures the representative workload behind that result at a scale that
// runs in milliseconds, so `go test -bench=.` sweeps the whole evaluation
// surface. The full row/series regeneration lives in cmd/bench (see
// EXPERIMENTS.md); these benchmarks track the cost of the underlying
// machinery over time.

import (
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/ldpc"
	"repro/internal/modulation"
)

// benchFrame runs nFrames through a fresh engine; reused by most benches.
func benchFrame(b *testing.B, cfg Config, opts Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum, err := RunUplink(cfg, opts, Rayleigh, 25, 1, false, 1)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Drops > 0 {
			b.Fatalf("dropped packets: %d", sum.Drops)
		}
	}
}

// BenchmarkTable1_BlockTasks exercises every uplink block end to end on
// the small cell used for Table 1's per-task cost columns.
func BenchmarkTable1_BlockTasks(b *testing.B) {
	benchFrame(b, laptopCfg(), Options{Workers: 2})
}

// BenchmarkTable1_SteadyStateFrame measures one frame through a warm,
// long-lived engine — the deployment steady state (DESIGN §14). Unlike
// benchFrame, the engine, generator and ring live across iterations, so
// after the warm-up frames the whole loop (RRU emit → ring → RX → FFT →
// ZF → demod → decode → result) recycles arenas and must allocate
// nothing: `make perf` gates this benchmark at exactly 0 allocs/op and
// 0 B/op. Allocation counting is process-wide, so the zero covers every
// engine goroutine, not just the driver.
func BenchmarkTable1_SteadyStateFrame(b *testing.B) {
	cfg := laptopCfg()
	ring := NewRing(4096, PacketSizeFor(&cfg))
	eng, err := New(cfg, Options{Workers: 2}, ring.Side(1))
	if err != nil {
		b.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	gen, err := NewGenerator(cfg, Rayleigh, 25, 1)
	if err != nil {
		b.Fatal(err)
	}
	send := ring.Side(0).Send // bound once; a per-call method value allocates
	results := eng.Results()
	const warm = 8
	for f := 0; f < warm; f++ {
		if err := gen.EmitFrame(uint32(f), send); err != nil {
			b.Fatal(err)
		}
		<-results
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gen.EmitFrame(uint32(warm+i), send); err != nil {
			b.Fatal(err)
		}
		if r := <-results; r.Dropped {
			b.Fatal("dropped frame")
		}
	}
}

// BenchmarkFig6_FrameLatency measures one simulated 1 ms 64×16 uplink
// frame under the data-parallel policy with the paper's 26 workers.
func BenchmarkFig6_FrameLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(SimConfig{Workers: 26, Frames: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_PipelineVariant is the pipeline-parallel counterpart.
func BenchmarkFig6_PipelineVariant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(SimConfig{Workers: 26, Frames: 8,
			Mode: PipelineParallel}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7_MIMO16x4 measures the real-engine frame processing that
// Figure 7's CCDFs are built from.
func BenchmarkFig7_MIMO16x4(b *testing.B) {
	cfg := laptopCfg()
	cfg.Antennas, cfg.Users = 16, 4
	benchFrame(b, cfg, Options{Workers: 2})
}

// BenchmarkFig8_WorkerSweep runs the single-frame scaling simulation
// behind Figure 8 (1 and 26 workers bound the sweep).
func BenchmarkFig8_WorkerSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []int{1, 26} {
			if _, err := Simulate(SimConfig{Workers: w, Frames: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig9_ZCPilotFrame processes one over-the-air-style frame:
// time-orthogonal Zadoff–Chu pilots, LOS channel, 64-QAM rate-1/3.
func BenchmarkFig9_ZCPilotFrame(b *testing.B) {
	cfg := Config{
		Antennas:        16,
		Users:           4,
		OFDMSize:        512,
		DataSubcarriers: 300,
		Order:           modulation.QAM64,
		Rate:            ldpc.Rate13,
		DecodeIter:      5,
		Pilots:          TimeOrthogonal,
		Symbols:         UplinkSchedule(4, 2),
		ZFGroupSize:     15,
		DemodBlockSize:  64,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum, err := RunUplink(cfg, Options{Workers: 2}, LOS, 22, 1, false, 1)
		if err != nil {
			b.Fatal(err)
		}
		_ = sum
	}
}

// BenchmarkTable3_PerTaskCosts is the workload Table 3's per-task numbers
// come from (per-task timing enabled, stats merged at the end).
func BenchmarkTable3_PerTaskCosts(b *testing.B) {
	cfg := laptopCfg()
	cfg.Antennas, cfg.Users = 16, 4
	cfg.Symbols = UplinkSchedule(1, 6)
	benchFrame(b, cfg, Options{Workers: 2})
}

// BenchmarkFig10_DataMovement runs the dummy-kernel variant that isolates
// inter-core data movement (§6.2.2 methodology).
func BenchmarkFig10_DataMovement(b *testing.B) {
	benchFrame(b, laptopCfg(), Options{Workers: 2, DummyKernels: true})
}

// BenchmarkFig11_SyncSweep measures the antenna sweep behind Figure 11.
func BenchmarkFig11_SyncSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range []int{16, 64} {
			cell := Default64x16()
			cell.Antennas = m
			if _, err := Simulate(SimConfig{Frame: cell, Workers: 26, Frames: 2}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig12_LDPCDecode measures one rate-1/3 Z=104 decode, the unit
// of Figure 12's processing-time series (paper: 46.5 µs with AVX-512).
// The input is a clean codeword, so this is the high-SNR end of the
// series: Decode's syndrome prologue returns it at 0 iterations.
func BenchmarkFig12_LDPCDecode(b *testing.B) {
	code := ldpc.MustNew(ldpc.Rate13, 104)
	dec := ldpc.NewDecoder(code)
	info := make([]byte, code.K())
	cw := make([]byte, code.N())
	code.Encode(cw, info)
	llr := make([]float32, code.N())
	for i, bit := range cw {
		if bit == 0 {
			llr[i] = 4
		} else {
			llr[i] = -4
		}
	}
	out := make([]byte, code.K())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := dec.Decode(out, llr, 5); !r.OK {
			b.Fatal("decode failed")
		}
	}
}

// schedBenchLLR is the decode-schedule reference workload: a random
// codeword at the default 64×16 code whose ±4 LLRs carry σ=2.5 Gaussian
// noise — harsh enough that min-sum runs several real iterations (unit
// noise decodes in one, hiding any schedule difference) while still
// converging under both schedules. Shared by the Decode_Layered/_Flooding
// pair and mirrored by cmd/bench's -iters tripwire.
func schedBenchLLR(rng *rand.Rand, code *ldpc.Code) []float32 {
	info := make([]byte, code.K())
	for i := range info {
		info[i] = byte(rng.Intn(2))
	}
	cw := make([]byte, code.N())
	code.Encode(cw, info)
	llr := make([]float32, code.N())
	for i, bit := range cw {
		if bit == 0 {
			llr[i] = 4
		} else {
			llr[i] = -4
		}
		llr[i] += float32(2.5 * rng.NormFloat64())
	}
	return llr
}

// benchDecodeSched measures the float decoder with the message-passing
// schedule selectable: the layered default (fused incremental syndrome)
// against the flooding ablation (DESIGN §13). The two sides run
// different iteration counts by design — the gap is the combined effect
// of the halved iterations-to-converge and the O(1) convergence test.
func benchDecodeSched(b *testing.B, flooding bool) {
	rng := rand.New(rand.NewSource(1))
	code := ldpc.MustNew(ldpc.Rate13, 104)
	dec := ldpc.NewDecoder(code)
	dec.Flooding = flooding
	llr := schedBenchLLR(rng, code)
	out := make([]byte, code.K())
	if res := dec.Decode(out, llr, 20); !res.OK {
		b.Fatalf("reference workload did not converge (flooding=%v)", flooding)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode(out, llr, 20)
	}
}

func BenchmarkDecode_Layered(b *testing.B)  { benchDecodeSched(b, false) }
func BenchmarkDecode_Flooding(b *testing.B) { benchDecodeSched(b, true) }

// BenchmarkFig12_LDPCEncode is the encoding counterpart.
func BenchmarkFig12_LDPCEncode(b *testing.B) {
	code := ldpc.MustNew(ldpc.Rate13, 104)
	info := make([]byte, code.K())
	cw := make([]byte, code.N())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		code.Encode(cw, info)
	}
}

// BenchmarkFig13_Milestones measures the paired policy comparison behind
// Figure 13's block spans and milestones.
func BenchmarkFig13_Milestones(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mode := range []Mode{DataParallel, PipelineParallel} {
			if _, err := Simulate(SimConfig{Workers: 26,
				Frames: 4, Mode: mode}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable4_AllOptimizationsOn and ..._Off bound the ablation table:
// the gap between them is the combined effect of every §3.4/§4 technique.
func BenchmarkTable4_AllOptimizationsOn(b *testing.B) {
	benchFrame(b, laptopCfg(), Options{Workers: 2})
}

// BenchmarkTable4_AllOptimizationsOff disables everything Table 4 ablates.
func BenchmarkTable4_AllOptimizationsOff(b *testing.B) {
	benchFrame(b, laptopCfg(), Options{Workers: 2,
		DisableBatching: true, DisableMemOpt: true, DisableDirectStore: true,
		DisableInverseOpt: true, DisableJITGemm: true,
		DisableSIMDConvert: true, DisableZFCache: true})
}

// BenchmarkTable4_ZFCacheOff isolates the coherence-cached ZF ablation:
// only the cross-frame ZF cache reverts to recomputing the zero-forcing
// inverse every frame, everything else stays optimized. The generator's
// default block-fading channel is frame-coherent, so the cached run hits
// on every post-warm-up frame (Table 4 / DESIGN §14).
func BenchmarkTable4_ZFCacheOff(b *testing.B) {
	benchFrame(b, laptopCfg(), Options{Workers: 2, DisableZFCache: true})
}

// BenchmarkTable4_FloodingDecode isolates the decode-schedule ablation:
// only LDPC decoding reverts to the flooding message-passing schedule,
// everything else stays optimized (DESIGN §13).
func BenchmarkTable4_FloodingDecode(b *testing.B) {
	benchFrame(b, laptopCfg(), Options{Workers: 2, DisableLayeredDecode: true})
}

// BenchmarkTracerOverhead_On / _Off bound the cost of the per-worker
// event tracer on the Table-1 workload: _On is the default engine (ring
// emission enabled), _Off sets Options.DisableTracing. Each iteration
// runs 16 frames through one engine so the one-time ring allocation is
// amortized the way a long-lived deployment amortizes it, and the delta
// isolates the per-event hot-path cost (<2%, see EXPERIMENTS.md). The
// emit path itself allocates nothing (TestEmitZeroAlloc pins 0 B/op).
func BenchmarkTracerOverhead_On(b *testing.B) {
	benchTracerOverhead(b, false)
}

// BenchmarkTracerOverhead_Off is the ablation: tracing disabled.
func BenchmarkTracerOverhead_Off(b *testing.B) {
	benchTracerOverhead(b, true)
}

func benchTracerOverhead(b *testing.B, disable bool) {
	b.Helper()
	b.ReportAllocs()
	const framesPerRun = 16
	for i := 0; i < b.N; i++ {
		sum, err := RunUplink(laptopCfg(), Options{Workers: 2, DisableTracing: disable},
			Rayleigh, 25, framesPerRun, false, 1)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Drops > 0 {
			b.Fatalf("dropped packets: %d", sum.Drops)
		}
	}
}

// BenchmarkRecorderOverhead_On / _Off bound the cost of the SLO
// recorder + flight recorder (DESIGN §17) on the Table-1 workload: _On
// is the default engine (per-frame stage attribution folded into the
// budget histograms, incident ring armed), _Off sets
// Options.DisableRecorder. Same 16-frame-per-iteration shape as the
// tracer pair, so the delta isolates the recorder's steady-state cost
// (<2% median, gated by `make perf`). The attribution path allocates
// nothing — FrameRec lives inside the recycled frameState — so the
// SteadyState zero-alloc gate holds with the recorder on.
func BenchmarkRecorderOverhead_On(b *testing.B) {
	benchRecorderOverhead(b, false)
}

// BenchmarkRecorderOverhead_Off is the ablation: recorder disabled.
func BenchmarkRecorderOverhead_Off(b *testing.B) {
	benchRecorderOverhead(b, true)
}

func benchRecorderOverhead(b *testing.B, disable bool) {
	b.Helper()
	b.ReportAllocs()
	const framesPerRun = 16
	for i := 0; i < b.N; i++ {
		sum, err := RunUplink(laptopCfg(), Options{Workers: 2, DisableRecorder: disable},
			Rayleigh, 25, framesPerRun, false, 1)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Drops > 0 {
			b.Fatalf("dropped packets: %d", sum.Drops)
		}
	}
}

// BenchmarkTable5_ServerProfiles runs the cost-scaled profile comparison.
func BenchmarkTable5_ServerProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cost := PaperCostModel()
		cost.DecodeUS *= 1.55 // AVX2-class profile
		if _, err := Simulate(SimConfig{Workers: 32,
			Frames: 4, Cost: cost}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFleet measures one frame through every cell of a warm fleet
// (DESIGN §16): per iteration, each cell's RRU emits one frame through
// the shared router and the iteration ends when all cells report. The
// Cells2/Cells4 pair against BenchmarkTable1_SteadyStateFrame shows the
// cost of sharding one host's worker budget across cells.
func benchFleet(b *testing.B, cells int) {
	cfg := laptopCfg()
	fl, err := NewFleet(FleetConfig{Cells: cells, Frame: cfg, TotalWorkers: 2})
	if err != nil {
		b.Fatal(err)
	}
	fl.Start()
	defer fl.Stop()
	gens := make([]*Generator, cells)
	for c := range gens {
		g, err := NewGenerator(cfg, Rayleigh, 25, 1+int64(c))
		if err != nil {
			b.Fatal(err)
		}
		g.SetCell(uint8(c))
		gens[c] = g
	}
	frame := uint32(0)
	runAll := func() {
		for _, g := range gens {
			if err := g.EmitFrame(frame, fl.Route); err != nil {
				b.Fatal(err)
			}
		}
		frame++
		for c := 0; c < cells; c++ {
			r := <-fl.Results()
			if r.Dropped {
				b.Fatalf("cell %d dropped frame %d", r.Cell, r.Frame)
			}
		}
	}
	for i := 0; i < 2; i++ { // warm up arenas and caches
		runAll()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAll()
	}
}

// BenchmarkFleet_Cells2 runs the 2-cell fleet steady state.
func BenchmarkFleet_Cells2(b *testing.B) { benchFleet(b, 2) }

// BenchmarkFleet_Cells4 runs the 4-cell fleet steady state.
func BenchmarkFleet_Cells4(b *testing.B) { benchFleet(b, 4) }

// BenchmarkWorkloadGenerator isolates the software RRU's TX chain
// (the paper's §5.2 IQ sample generator).
func BenchmarkWorkloadGenerator(b *testing.B) {
	cfg := laptopCfg()
	gen, err := NewGenerator(cfg, channel.Rayleigh, 25, 1)
	if err != nil {
		b.Fatal(err)
	}
	sink := func([]byte) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gen.EmitFrame(uint32(i), sink); err != nil {
			b.Fatal(err)
		}
	}
}
