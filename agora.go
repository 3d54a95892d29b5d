// Package agora is a software-only massive MIMO baseband processor: a Go
// reproduction of "Agora: Real-time massive MIMO baseband processing in
// software" (CoNEXT 2020). It converts time-domain IQ samples from a
// remote radio unit (RRU) into decoded uplink bits, and MAC bits into
// precoded downlink samples, scheduling the signal-processing blocks
// (FFT, channel estimation, zero-forcing, equalization, demodulation,
// LDPC coding) across worker goroutines with a data-parallel-first
// manager–worker design.
//
// Quick start:
//
//	cfg := agora.Default64x16()
//	cfg.Antennas, cfg.Users = 16, 4 // scale down for a laptop
//	ring := agora.NewRing(4096, agora.PacketSizeFor(&cfg))
//	eng, _ := agora.New(cfg, agora.Options{Workers: 4}, ring.Side(1))
//	eng.Start()
//	gen, _ := agora.NewGenerator(cfg, agora.Rayleigh, 25 /*dB*/, 1)
//	gen.EmitFrame(0, ring.Side(0).Send)
//	res := <-eng.Results()
//	fmt.Println(res.Latency, res.BlocksOK, "/", res.BlocksTotal)
//	eng.Stop()
//
// The package re-exports the building blocks from internal packages so a
// downstream user needs only this import; the experiment harness in
// cmd/bench and the runnable programs in examples/ are built entirely on
// this surface.
package agora

import (
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TaskType identifies a baseband processing block.
type TaskType = queue.TaskType

// Task types (the blocks of paper Figure 1b with Table 2 fusions).
const (
	TaskPilotFFT = queue.TaskPilotFFT
	TaskZF       = queue.TaskZF
	TaskFFT      = queue.TaskFFT
	TaskDemod    = queue.TaskDemod
	TaskDecode   = queue.TaskDecode
	TaskEncode   = queue.TaskEncode
	TaskPrecode  = queue.TaskPrecode
	TaskIFFT     = queue.TaskIFFT
)

// Core configuration and engine types.
type (
	// Config describes a cell: MIMO size, OFDM numerology, frame
	// schedule, modulation and coding.
	Config = frame.Config
	// Options selects the scheduling mode, worker count and the
	// optimization toggles the paper ablates.
	Options = core.Options
	// Engine is one running Agora instance.
	Engine = core.Engine
	// FrameResult reports a processed frame with its latency milestones.
	FrameResult = core.FrameResult
	// TaskStat summarizes per-block task costs (paper Table 3).
	TaskStat = core.TaskStat
	// Generator is the software RRU: it synthesizes uplink IQ traffic
	// with known ground-truth bits.
	Generator = workload.Generator
	// Transport moves fronthaul packets (in-process ring or UDP).
	Transport = fronthaul.Transport
	// Ring is the in-process transport standing in for DPDK.
	Ring = fronthaul.Ring
	// ChannelModel selects how channel matrices are drawn.
	ChannelModel = channel.Model
	// Mode selects data-parallel (Agora) or pipeline-parallel scheduling.
	Mode = core.Mode
	// SimConfig configures the calibrated discrete-event scheduler
	// simulator used for core-scaling experiments.
	SimConfig = sim.Config
	// SimResult is the simulator's output.
	SimResult = sim.Result
	// TraceEvent is one tracer record: lane, task, frame coordinates and
	// start/end timestamps (ns since the engine's trace epoch).
	TraceEvent = obs.Event
	// Timeline is the reconstructed multi-frame schedule: per-frame stage
	// spans (Fig. 7), worker utilization and idle gaps.
	Timeline = obs.Timeline
	// Metrics is the engine's live, race-safe counter set (frames,
	// deadline misses, latency histogram, queue-depth gauges).
	Metrics = obs.Metrics
	// MetricsSnapshot is the JSON-friendly view expvar publishes.
	MetricsSnapshot = obs.Snapshot
	// Fleet runs N cell engines behind a cell router with coordinated
	// lifecycle and merged observability (DESIGN §16).
	Fleet = fleet.Fleet
	// FleetConfig sizes a fleet: cell count, per-cell frame geometry,
	// shared or per-cell worker budget, degradation policy.
	FleetConfig = fleet.Config
	// CellResult is one cell's FrameResult tagged with the cell id.
	CellResult = fleet.CellResult
	// CellState is a cell's lifecycle state (active, degraded, draining,
	// stopped).
	CellState = fleet.CellState
	// FleetSnapshot is the aggregated multi-cell metrics view a fleet
	// publishes on one expvar endpoint.
	FleetSnapshot = obs.FleetSnapshot
	// FleetSummary aggregates a multi-cell harness run (RunFleetUplink).
	FleetSummary = harness.FleetSummary
	// DecodeSnap is the LDPC decode-iteration accounting (DESIGN §13):
	// blocks decoded, mean/max BP iterations, early-exit rate.
	DecodeSnap = obs.DecodeSnap
	// KernelRow names the kernel implementation ("avx2" or "generic") one
	// vectorised stage runs; Metrics.Kernels holds the engine's table.
	KernelRow = obs.KernelRow
	// StageSLO is one stage's live budget-attribution summary: per-frame
	// busy-time distribution and mean share of the frame budget
	// (DESIGN §17).
	StageSLO = obs.StageSLO
	// FrameRec is one frame's per-stage attribution record, carried on
	// every FrameResult when the recorder is on.
	FrameRec = obs.FrameRec
	// Incident is one flight-recorder post-mortem: the bad frame's
	// attribution record plus queue/arena/fronthaul state at capture.
	Incident = obs.Incident
	// IncidentReason classifies what made a frame bad.
	IncidentReason = obs.IncidentReason
)

// Incident reasons.
const (
	IncidentDrop     = obs.IncidentDrop
	IncidentDeadline = obs.IncidentDeadline
	IncidentLoss     = obs.IncidentLoss
	IncidentShed     = obs.IncidentShed
)

// Scheduling modes.
const (
	DataParallel     = core.DataParallel
	PipelineParallel = core.PipelineParallel
)

// Channel models.
const (
	Rayleigh = channel.Rayleigh
	LOS      = channel.LOS
	Identity = channel.Identity
)

// PilotScheme selects how users send pilots.
type PilotScheme = frame.PilotScheme

// Pilot schemes: frequency-orthogonal (one shared pilot symbol, emulated
// RRU) or time-orthogonal Zadoff–Chu (one symbol per user, hardware RRU).
const (
	FreqOrthogonal = frame.FreqOrthogonal
	TimeOrthogonal = frame.TimeOrthogonal
)

// LoadConfig reads and validates a cell configuration from a JSON file,
// letting cmd/agora and cmd/rru share one cell definition.
func LoadConfig(path string) (Config, error) { return frame.LoadConfig(path) }

// SaveConfig writes a validated configuration as indented JSON.
func SaveConfig(path string, c Config) error { return frame.SaveConfig(path, c) }

// Default64x16 returns the paper's headline configuration: 64×16 MIMO,
// 2048-point OFDM with 1200 data subcarriers, 64-QAM, rate-1/3 LDPC
// (Z=104), one 1 ms all-uplink frame of 14 symbols.
func Default64x16() Config { return frame.Default64x16() }

// UplinkSchedule builds a frame schedule of pilots followed by uplink
// data symbols; DownlinkSchedule is the downlink analogue.
func UplinkSchedule(pilots, data int) string { return frame.UplinkSchedule(pilots, data) }

// DownlinkSchedule builds a pilots-then-downlink schedule.
func DownlinkSchedule(pilots, data int) string { return frame.DownlinkSchedule(pilots, data) }

// New constructs an Engine processing cfg over transport tr.
func New(cfg Config, opts Options, tr Transport) (*Engine, error) {
	return core.NewEngine(cfg, opts, tr)
}

// NewRing creates the in-process fronthaul transport (depth packets per
// direction, mtu bytes per packet). Side(0) is the RRU end, Side(1) the
// Agora end.
func NewRing(depth, mtu int) *Ring { return fronthaul.NewRing(depth, mtu) }

// NewUDP creates a UDP fronthaul endpoint (see cmd/rru and cmd/agora).
func NewUDP(local, peer string, mtu int) (Transport, error) {
	return fronthaul.NewUDP(local, peer, mtu)
}

// PacketSizeFor returns the wire size of one fronthaul packet for cfg,
// for sizing ring MTUs.
func PacketSizeFor(cfg *Config) int {
	return fronthaul.PacketSize(cfg.SamplesPerSymbol()) + 64
}

// NewGenerator builds the software RRU for cfg with the given channel
// model and SNR (dB). The seed makes traffic reproducible.
func NewGenerator(cfg Config, model ChannelModel, snrDB float64, seed int64) (*Generator, error) {
	return workload.NewGenerator(cfg, model, snrDB, seed)
}

// Simulate runs the calibrated discrete-event scheduling simulation.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// PaperCostModel returns the per-task cost model from the paper's
// Table 3, for Simulate.
func PaperCostModel() sim.CostModel { return sim.PaperCosts() }

// RunSummary aggregates a batch uplink run.
type RunSummary = harness.RunSummary

// Link models the fronthaul for RunUplinkLink: an optional Reed-Solomon
// parity budget and a deterministic loss injector. The zero value is a
// lossless link with FEC off.
type Link = harness.Link

// LossInjector deterministically discards fronthaul packets (drop every
// Nth, seeded random rate, or both) for loss experiments.
type LossInjector = fronthaul.LossInjector

// NewLossInjector builds a loss injector; see fronthaul.NewLossInjector.
func NewLossInjector(every int, rate float64, seed int64) *LossInjector {
	return fronthaul.NewLossInjector(every, rate, seed)
}

// RunUplink drives nFrames uplink frames from a fresh software RRU
// through a fresh engine and aggregates latency and error statistics.
// It is the workhorse used by the examples and the benchmark harness.
// When realtimePacing is true, frames are emitted at the configured frame
// rate (as a real RRU would); otherwise each frame is emitted as soon as
// the previous result arrives (pure processing-speed measurement).
func RunUplink(cfg Config, opts Options, model ChannelModel, snrDB float64,
	nFrames int, realtimePacing bool, seed int64) (*RunSummary, error) {
	return harness.RunUplink(cfg, opts, model, snrDB, nFrames, realtimePacing, seed)
}

// RunUplinkLink is RunUplink over a configurable fronthaul link: packet
// loss injected between RRU and engine, optionally covered by a
// Reed-Solomon parity budget (DESIGN §15).
func RunUplinkLink(cfg Config, opts Options, model ChannelModel, snrDB float64,
	nFrames int, realtimePacing bool, seed int64, link Link) (*RunSummary, error) {
	return harness.RunUplinkLink(cfg, opts, model, snrDB, nFrames, realtimePacing, seed, link)
}

// NewFleet builds (without starting) a multi-cell deployment: cfg.Cells
// engines, each behind its own fronthaul ring, demuxed by the packet
// header's Cell byte (DESIGN §16).
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// RunFleetUplink drives nFrames uplink frames through each cell of a
// fleet (one software RRU per cell, packets demuxed by the router) and
// reports merged latency percentiles and aggregate frames/s.
func RunFleetUplink(cfg Config, opts Options, cells, totalWorkers int,
	snrDB float64, nFrames int, seed int64) (*FleetSummary, error) {
	return harness.RunFleetUplink(cfg, opts, cells, totalWorkers, snrDB, nFrames, seed)
}
