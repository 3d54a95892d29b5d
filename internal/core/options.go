// Package core implements Agora itself: the global shared buffers, the
// per-block compute kernels, and the manager–worker engine that schedules
// baseband tasks across workers with data parallelism first (paper §3).
// A pipeline-parallel variant (§5.4) shares the same kernels and buffers
// but statically partitions workers among blocks.
//
// Buffer layouts (see DESIGN §§9 and 10). Tasks of one block always write
// disjoint regions of the preallocated per-slot buffers, so the hot path
// takes no locks and allocates nothing:
//
//   - dataFreqTile, the post-FFT uplink grid, is cut into tiles of
//     8 subcarriers ([(sc/8)*8M + 8m + sc%8]): each antenna's samples
//     of a tile are one 64-byte line, so every FFT task stores whole
//     lines no other task writes, and the equalizer reads an M×8 tile
//     in place (mat.PlanTileMul).
//   - llrSC, the demodulator output, is subcarrier-major SoA
//     ([(sc*K + user)*order + bit]): the LLRs for a tile of subcarriers
//     are one contiguous span, written in a single pass by the fused
//     equalize+demod kernel. The decoder gathers its per-user codeword
//     view with a strided copy.
//   - dlFreq, the precoded downlink grid, is subcarrier-major
//     ([sc*M + m]): a precode task covers the same DemodBlockSize block
//     a demod task does, modulates each user straight into a
//     subcarrier-major tile per ZF-group strip and writes the strip's
//     rows in place; the IFFT task reads a run of antennas per row.
//
// Kernel entry points live in blocks.go: runPilotFFT, runZF, runFFT,
// runDemod (the fused equalizeDemodBlock), runDecode,
// runEncode, runPrecode, runIFFT. Each FFT block takes a run of
// consecutive antennas; a run of one is a batch of one. Options{} selects
// the serving path. The Disable* toggles are the ablations the paper's
// evaluation measures (Table 4, §3.4, §4) and two observability
// switches; no other alternative path is kept.
package core

import (
	"fmt"
	"time"

	"repro/internal/sched"
)

// Mode selects the scheduling policy (see internal/sched).
type Mode = sched.Mode

// Scheduling modes.
const (
	DataParallel     = sched.DataParallel
	PipelineParallel = sched.PipelineParallel
)

// Options collects the engine knobs, including every optimization the
// paper ablates in Table 4. The zero value of each toggle is the
// *optimized* setting so that Options{} behaves like Agora with all
// optimizations on.
type Options struct {
	Mode    Mode
	Workers int // worker goroutines (excluding manager and net threads)

	// Slots is the number of frames of global buffer space (paper
	// provisions "tens of frames"; experiments use a handful).
	Slots int

	// DisableBatching turns off task batching (§3.4): every message
	// carries exactly one task.
	DisableBatching bool

	// DisableMemOpt turns off the memory-access optimization (§4.1):
	// instead of FFT workers writing the tiled grid that demodulation
	// reads in place, FFT writes antenna-major and demodulation copies
	// each strip, one run per antenna across strided cache lines, into a
	// worker scratch tile. The multiply and demodulation that follow are the
	// default's, so the LLRs are bit-identical and the option prices the
	// layout alone.
	DisableMemOpt bool

	// DisableDirectStore turns off the non-temporal-store analogue
	// (§4.1): FFT results are first written to a worker-private staging
	// buffer and then copied into the shared buffer, doubling the
	// coherence traffic that direct stores avoid.
	DisableDirectStore bool

	// DisableInverseOpt replaces the direct Gram-matrix inversion in
	// zero-forcing with the robust SVD pseudo-inverse (§4.2).
	DisableInverseOpt bool

	// DisableJITGemm replaces the size-specialized blocked multiplies of
	// equalization and precoding (mat.PlanBlockMul) with the textbook loop
	// (§4.2).
	DisableJITGemm bool

	// DisableTracing turns off the per-worker event tracer feeding the
	// Chrome-trace capture and the worker-lane utilisation (Engine
	// TraceEvents/Timeline/WriteChromeTrace); per-frame stage spans come
	// from the recorder either way. It follows the package's
	// zero-value-on convention: the enabled tracer appends fixed-size
	// events to preallocated single-writer rings (<2% end-to-end, see
	// BenchmarkTracerOverhead) and neither setting allocates on the hot
	// path. The live Metrics counters stay on either way.
	DisableTracing bool

	// TraceCapacity sets each trace ring's capacity in events (rounded up
	// to a power of two); the ring retains the most recent window. Zero
	// means 1024 events (32 KiB) per lane, which at paper scale (64×16,
	// ~700 task messages per frame spread across 26 workers) retains tens
	// of frames — the rings are allocated and zeroed up front so the emit
	// path never allocates. Raise it to capture longer windows for
	// chrome://tracing.
	TraceCapacity int

	// DisableRecorder turns off the live SLO attribution and the anomaly
	// flight recorder (DESIGN §12): completion messages stop carrying
	// execution stamps into per-frame FrameRecs, the per-stage budget
	// histograms stay empty, and no incidents are captured. Zero-value-on
	// convention: the enabled recorder adds a few manager-side integer
	// folds per completion and one branch per healthy frame, and neither
	// setting allocates on the hot path (see BenchmarkRecorderGate).
	DisableRecorder bool

	// RealTime pins workers to OS threads and disables GC assists during
	// the run, the analogue of running Agora as a real-time process with
	// isolated cores (§4.3), and idle roles spin instead of parking.
	// Unlike the other knobs this one defaults to off because it is
	// process-global.
	RealTime bool

	// KeepBits retains decoded uplink bits in each FrameResult (needed by
	// BER/BLER experiments; adds per-frame allocation).
	KeepBits bool

	// DisableZFCache turns off the coherence-cached zero-forcing path:
	// every frame recomputes its equalizer (and precoder) from its own
	// pilot estimate. With the cache on (the default, following the
	// package's zero-value-on convention), the manager compares each
	// frame's pilot-estimated CSI against the snapshot taken when the
	// cache was last refreshed and — while the relative Frobenius delta
	// stays under zfCacheDelta and the snapshot is younger than
	// zfCacheMaxAge frames — replaces the Gram/Cholesky recompute with a
	// plain copy of the cached matrices (DESIGN §14). Decoded output is
	// bit-identical whenever the cache never hits (e.g. i.i.d. per-frame
	// channels), making this a Table-4-style ablation pair.
	DisableZFCache bool

	// ZFClusters enables decentralized equalization (DESIGN §16): the M
	// antennas are partitioned into ZFClusters contiguous clusters, each
	// computing its partial Gram matrix H_cᴴH_c, with a central reduce
	// summing the partials before the Cholesky solve — the computation
	// shape of the decentralized massive-MIMO architectures in PAPERS.md,
	// letting a future cell span more antennas than one engine touches.
	// 0 or 1 keeps the monolithic single-pass Gram; on a static channel
	// the clustered reduce is bit-identical (see mat's
	// TestGramClusteredBitIdentity).
	ZFClusters int

	// FECParity enables the fronthaul Reed-Solomon layer: the RRU sends
	// FECParity parity packets after each pilot/uplink symbol's
	// M-antenna data burst, and the engine reconstructs up to FECParity
	// lost packets per symbol before the frame deadline (DESIGN §15).
	// The engine side only decodes — encoding is the workload
	// generator's SetFECParity — so an engine with FECParity 0 simply
	// rejects parity packets. Antennas+FECParity must fit GF(256).
	FECParity int

	// StaleDLSymbols lets the first n downlink data symbols of a frame be
	// precoded with the PREVIOUS frame's precoder (§3.4.2), so their
	// samples reach the RRU before this frame's pilots have even been
	// processed — eliminating RRU idle time at the cost of slight
	// precoder staleness.
	StaleDLSymbols int

	// FrameTimeout abandons a frame whose packets stopped arriving,
	// keeping the engine live under fronthaul loss. Zero means 2s.
	FrameTimeout time.Duration
}

// Flight-recorder and coherence-cache constants.
const (
	// incidentCapacity is how many post-mortems the flight recorder ring
	// retains (oldest overwritten).
	incidentCapacity = 64
	// zfCacheDelta is the coherence window's relative CSI-change
	// threshold: the cache serves frame f only while
	// ‖H_f − H_cache‖_F ≤ zfCacheDelta·‖H_cache‖_F summed over ZF groups
	// (≈ the estimation-noise floor at the paper's operating SNRs;
	// channel motion quickly exceeds it).
	zfCacheDelta = 0.05
	// zfCacheMaxAge caps how many consecutive frames one cached ZF may
	// serve before a forced recompute, bounding error accumulation under
	// slow drift the norm test cannot see.
	zfCacheMaxAge = 64
)

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Slots <= 0 {
		// The paper provisions "tens of frames" of buffer space; eight
		// slots keep a paced fronthaul from rejecting bursts when a frame
		// occasionally finishes late (four proved too tight under load).
		o.Slots = 8
	}
	if o.FrameTimeout <= 0 {
		o.FrameTimeout = 2 * time.Second
	}
	if o.TraceCapacity <= 0 {
		o.TraceCapacity = 1 << 10
	}
	return o
}

// validate rejects nonsensical combinations.
func (o Options) validate() error {
	if o.FECParity < 0 {
		return fmt.Errorf("core: FECParity must be >= 0, got %d", o.FECParity)
	}
	if o.ZFClusters < 0 {
		return fmt.Errorf("core: ZFClusters must be >= 0, got %d", o.ZFClusters)
	}
	return nil
}
