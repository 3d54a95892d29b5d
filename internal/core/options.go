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
//   - dataFreqSC, the post-FFT uplink grid, is subcarrier-major
//     ([sc*M + m]): B consecutive subcarriers form a contiguous B×M
//     row-major matrix that the blocked equalizer wraps in place.
//   - llrSC, the demodulator output, is subcarrier-major SoA
//     ([(sc*K + user)*order + bit]): the LLRs for a tile of subcarriers
//     are one contiguous span, written in a single pass by the fused
//     equalize+demod kernel. The decoder gathers its per-user codeword
//     view with a strided copy.
//   - dlFreq, the precoded downlink grid, is subcarrier-major like
//     dataFreqSC; precode tiles write it in place and IFFT gathers per
//     antenna.
//
// Kernel entry points live in blocks.go: runPilotFFT, runZF, runFFT,
// runDemod (fused equalizeDemodBlock, or runDemodScalar), runDecode,
// runEncode, runPrecode, runIFFT. Each FFT block takes a run of
// consecutive antennas; a run of one is a batch of one. Options{} selects
// the serving path. The Disable* toggles are the ablations the paper's
// evaluation measures (Table 4, §3.4, §4), the flooding decode baseline
// and two observability switches; no other alternative path is kept.
package core

import (
	"fmt"
	"time"

	"repro/internal/queue"
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
	// instead of FFT workers writing transposed (subcarrier-major) output
	// that demodulation reads contiguously, FFT writes antenna-major and
	// demodulation gathers across strided cache lines.
	DisableMemOpt bool

	// DisableDirectStore turns off the non-temporal-store analogue
	// (§4.1): FFT results are first written to a worker-private staging
	// buffer and then copied into the shared buffer, doubling the
	// coherence traffic that direct stores avoid.
	DisableDirectStore bool

	// DisableInverseOpt replaces the direct Gram-matrix inversion in
	// zero-forcing with the robust SVD pseudo-inverse (§4.2).
	DisableInverseOpt bool

	// DisableJITGemm replaces the specialized matrix kernels with
	// textbook loops (§4.2).
	DisableJITGemm bool

	// DisableLayeredDecode replaces the default layered (serial-C) LDPC
	// message-passing schedule with a flooding schedule (ldpc/flood.go,
	// DESIGN §13): every check node of an iteration reads the beliefs from
	// the previous full iteration instead of the freshest within-iteration
	// values. Decoded information bits match the layered schedule on
	// decodable inputs, but iterations-to-converge roughly double — the
	// Table-4-style ablation that prices the layered schedule.
	DisableLayeredDecode bool

	// DisableSIMDConvert replaces the word-packed IQ conversion with the
	// byte-at-a-time version (§4, data type conversions). It also precludes
	// the fused unpack/permute FFT front end, which builds on the packed
	// conversion.
	DisableSIMDConvert bool

	// DisableTracing turns off the per-worker event tracer feeding the
	// Chrome-trace capture and frame-timeline reconstruction (Engine
	// TraceEvents/Timeline/WriteChromeTrace). It follows the package's
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
	// flight recorder (DESIGN §17): completion messages stop carrying
	// execution stamps into per-frame FrameRecs, the per-stage budget
	// histograms stay empty, and no incidents are captured. Zero-value-on
	// convention: the enabled recorder adds a few manager-side integer
	// folds per completion and one branch per healthy frame, and neither
	// setting allocates on the hot path (see BenchmarkRecorderOverhead).
	DisableRecorder bool

	// IncidentCapacity sets how many post-mortems the flight recorder
	// ring retains (oldest overwritten). Zero means 64.
	IncidentCapacity int

	// RealTime pins workers to OS threads and disables GC assists during
	// the run, the analogue of running Agora as a real-time process with
	// isolated cores (§4.3). Unlike the other knobs this one defaults to
	// off because it is process-global.
	RealTime bool

	// DummyKernels replaces every compute kernel with a version that only
	// performs the kernel's memory reads and writes, isolating data
	// movement from computation (§6.2.2 methodology).
	DummyKernels bool

	// PipelineAlloc optionally fixes the per-block worker counts for
	// PipelineParallel mode; when nil Workers are split by Table 3's block
	// cost shares (internal/sched). Indexed by queue.TaskType.
	PipelineAlloc map[queue.TaskType]int

	// KeepBits retains decoded uplink bits in each FrameResult (needed by
	// BER/BLER experiments; adds per-frame allocation).
	KeepBits bool

	// UseMRC replaces the zero-forcing equalizer with conjugate
	// (maximum-ratio-combining) beamforming, the lower-overhead method
	// the paper suggests for ill-conditioned channels (§4.2).
	UseMRC bool

	// DisableZFCache turns off the coherence-cached zero-forcing path:
	// every frame recomputes its equalizer (and precoder) from its own
	// pilot estimate. With the cache on (the default, following the
	// package's zero-value-on convention), the manager compares each
	// frame's pilot-estimated CSI against the snapshot taken when the
	// cache was last refreshed and — while the relative Frobenius delta
	// stays under ZFCacheDelta and the snapshot is younger than
	// ZFCacheMaxAge frames — replaces the Gram/Cholesky recompute with a
	// plain copy of the cached matrices (DESIGN §14). Decoded output is
	// bit-identical whenever the cache never hits (e.g. i.i.d. per-frame
	// channels), making this a Table-4-style ablation pair.
	DisableZFCache bool

	// ZFCacheDelta is the coherence window's relative CSI-change
	// threshold: the cache serves frame f only while
	// ‖H_f − H_cache‖_F ≤ ZFCacheDelta·‖H_cache‖_F summed over ZF
	// groups. Zero means 0.05 (≈ the estimation-noise floor at the
	// paper's operating SNRs; channel motion quickly exceeds it).
	ZFCacheDelta float64

	// ZFCacheMaxAge caps how many consecutive frames one cached ZF may
	// serve before a forced recompute, bounding error accumulation under
	// slow drift the norm test cannot see. Zero means 64 frames;
	// negative means no age limit.
	ZFCacheMaxAge int

	// ZFClusters enables decentralized equalization (DESIGN §16): the M
	// antennas are partitioned into ZFClusters contiguous clusters, each
	// computing its partial Gram matrix H_cᴴH_c, with a central reduce
	// summing the partials before the Cholesky solve — the computation
	// shape of the decentralized massive-MIMO architectures in PAPERS.md,
	// letting a future cell span more antennas than one engine touches.
	// 0 or 1 keeps the monolithic single-pass Gram (the Table-4 ablation
	// row); on a static channel the clustered reduce is bit-identical
	// (see mat's TestGramClusteredBitIdentity).
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

	// QueueDepth sizes each task queue (messages). Zero (the default)
	// derives each queue's depth from the frame geometry: a queue only
	// needs to hold the messages its task type can have in flight across
	// every buffer slot, which for small cells is far less than a uniform
	// worst-case depth and shrinks per-engine memory accordingly.
	QueueDepth int

	// FrameTimeout abandons a frame whose packets stopped arriving,
	// keeping the engine live under fronthaul loss. Zero means 2s.
	FrameTimeout time.Duration

	// noRecycle (tests only) bypasses the frameState free-list so every
	// admitted frame gets a freshly allocated state, the reference
	// behaviour TestFrameStateRecycling pins recycled output against.
	noRecycle bool
}

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
	if o.IncidentCapacity <= 0 {
		o.IncidentCapacity = 64
	}
	if o.ZFCacheDelta <= 0 {
		o.ZFCacheDelta = 0.05
	}
	if o.ZFCacheMaxAge == 0 {
		o.ZFCacheMaxAge = 64
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
