package obs

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/queue"
	"repro/internal/stats"
)

// Gauge indices for the engine's non-task queues (appended after the
// per-task-type queues in Metrics).
const (
	GaugeRX   = int(queue.NumTaskTypes)
	GaugeComp = int(queue.NumTaskTypes) + 1
	NumGauges = int(queue.NumTaskTypes) + 2
)

// Metrics is the always-on, race-safe counter set: everything a live
// dashboard (expvar) reads mid-run. All fields are atomics; the tracer's
// rings are deliberately NOT part of this because they are only readable
// at quiescence.
type Metrics struct {
	FramesDone    atomic.Int64
	FramesDropped atomic.Int64
	// DeadlineMiss counts completed frames whose latency exceeded the
	// frame budget (the on-air frame duration — Agora must on average
	// finish a frame before the next one lands).
	DeadlineMiss  atomic.Int64
	FrameBudgetNS atomic.Int64

	// Latency streams frame processing times (first packet to last
	// uplink decode / downlink TX) for live percentiles.
	Latency stats.Hist

	// QueueDepth is the most recent sampled depth of each queue
	// (per-task queues, then RX and completion); QueueMax is the
	// high-water mark across the run.
	QueueDepth [NumGauges]atomic.Int64
	QueueMax   [NumGauges]atomic.Int64

	// Arena/GC health (DESIGN §14): FreeStates gauges the frameState
	// free-list occupancy (it sitting at zero under load means more
	// concurrent frames than provisioned slots); ZFCacheHits/Misses
	// count the coherence-cache decision at each pilot completion.
	FreeStates    atomic.Int64
	ZFCacheHits   atomic.Int64
	ZFCacheMisses atomic.Int64

	// Fronthaul loss accounting (DESIGN §15). SeqGaps totals the missing
	// sequence numbers observed on the RX path (Σ max(0, seq−last−1));
	// SeqLate counts packets that arrived with a sequence number at or
	// below the high-water mark (reordered or duplicated); FECRecovered
	// counts payloads rebuilt from Reed-Solomon parity.
	SeqGaps      atomic.Int64
	SeqLate      atomic.Int64
	FECRecovered atomic.Int64

	// Decode-iteration accounting (DESIGN §13). DecodeBlocks counts code
	// blocks decoded, DecodeIters the BP iterations they consumed, and
	// DecodeEarlyExits the blocks whose syndrome check terminated them
	// before the iteration budget — together they expose
	// mean-iterations-to-converge and the early-exit rate. A block whose
	// channel decisions already form a codeword is decoded at 0
	// iterations and counts as an early exit. DecodeIterHist streams the
	// per-block iteration counts for max/percentiles (counts are small
	// integers, which the histogram's unit buckets hold exactly; bucket 0
	// is the blocks that arrived as codewords).
	DecodeBlocks     atomic.Int64
	DecodeIters      atomic.Int64
	DecodeEarlyExits atomic.Int64
	DecodeIterHist   stats.Hist
	// Kernels names the implementation each hand-vectorised stage runs,
	// in pipeline order (decode, fft, demod; internal/cpu states the
	// selection rule). Filled once by the engine before its goroutines
	// start, so a host that silently fell back to the Go loops is visible
	// on every obs surface.
	Kernels []KernelRow

	// StageBusy streams each completed frame's per-stage busy time
	// (DESIGN §12): the live SLO-attribution histograms that answer
	// "which stage ate the budget" mid-run, unlike the quiescence-only
	// timeline. Fed by ObserveStages from FrameRec folds.
	StageBusy [queue.NumTaskTypes]stats.Hist

	// Incidents counts flight-recorder captures (see IncidentRing);
	// mirrored here so a counter-only poller sees bad frames without
	// fetching the ring.
	Incidents atomic.Int64

	// HighWaterReset is the UnixNano time of the last ResetHighWater
	// call (0 when the QueueMax gauges still cover the whole run).
	HighWaterReset atomic.Int64
}

// ObserveFrame records one completed frame against the budget.
func (m *Metrics) ObserveFrame(latencyNS int64) {
	m.FramesDone.Add(1)
	m.Latency.AddNS(latencyNS)
	if b := m.FrameBudgetNS.Load(); b > 0 && latencyNS > b {
		m.DeadlineMiss.Add(1)
	}
}

// ObserveDecode records one decoded code block: the BP iterations it ran
// (0 for a block whose channel decisions already form a codeword) and
// whether it converged before exhausting the iteration budget. Called
// from the decode workers' hot path, so it is a handful of atomic adds
// and nothing else (no allocation, no locks).
func (m *Metrics) ObserveDecode(iters int, earlyExit bool) {
	m.DecodeBlocks.Add(1)
	m.DecodeIters.Add(int64(iters))
	if earlyExit {
		m.DecodeEarlyExits.Add(1)
	}
	m.DecodeIterHist.AddNS(int64(iters))
}

// ObserveStages folds one completed frame's attribution record into the
// live per-stage histograms. Called by the manager (or a fleet's result
// forwarder) once per completed frame; stages the frame never ran are
// skipped so downlink rows stay empty on uplink-only runs.
func (m *Metrics) ObserveStages(rec *FrameRec) {
	for i := range rec.Stages {
		if rec.Stages[i].Tasks > 0 {
			m.StageBusy[i].AddNS(rec.Stages[i].BusyNS)
		}
	}
}

// ResetHighWater rewinds the QueueMax high-water gauges to the current
// sampled depths so a monitor can window "max depth since my last poll"
// instead of a run-lifetime ratchet. The reset instant is surfaced in the
// snapshot. Racing in-flight SampleQueue calls can at worst re-ratchet a
// gauge to a depth observed around the reset — never lose a later peak.
func (m *Metrics) ResetHighWater() {
	for i := range m.QueueMax {
		m.QueueMax[i].Store(m.QueueDepth[i].Load())
	}
	m.HighWaterReset.Store(time.Now().UnixNano())
}

// SampleQueue records queue idx's instantaneous depth.
func (m *Metrics) SampleQueue(idx, depth int) {
	d := int64(depth)
	m.QueueDepth[idx].Store(d)
	for {
		cur := m.QueueMax[idx].Load()
		if d <= cur || m.QueueMax[idx].CompareAndSwap(cur, d) {
			return
		}
	}
}

// QueueGauge is one queue's sampled state in a snapshot.
type QueueGauge struct {
	Depth int64 `json:"depth"`
	Max   int64 `json:"max"`
}

// LatencySnap carries the live latency percentiles in milliseconds.
type LatencySnap struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// TaskSnap is one task type's cost summary in a snapshot.
type TaskSnap struct {
	Count   int64   `json:"count"`
	MeanUS  float64 `json:"mean_us"`
	TotalMS float64 `json:"total_ms"`
}

// ArenaSnap reports steady-state memory health: free-list occupancy and
// the ZF coherence-cache hit rate.
type ArenaSnap struct {
	FreeStates     int64   `json:"free_states"`
	ZFCacheHits    int64   `json:"zf_cache_hits"`
	ZFCacheMisses  int64   `json:"zf_cache_misses"`
	ZFCacheHitRate float64 `json:"zf_cache_hit_rate"`
}

// FronthaulSnap reports packet-level loss accounting: sequence gaps and
// late/duplicate arrivals seen by the engine's RX path, FEC recoveries,
// engine-side rejected packets (RxDrops), and the transport's own
// send-queue overflow drops (TxDrops, filled from the transport's
// StatsReporter when it has one).
type FronthaulSnap struct {
	SeqGaps      int64 `json:"seq_gaps"`
	SeqLate      int64 `json:"seq_late"`
	FECRecovered int64 `json:"fec_recovered"`
	RxDrops      int64 `json:"rx_drops"`
	TxPkts       int64 `json:"tx_pkts"`
	TxDrops      int64 `json:"tx_drops"`
	RxPkts       int64 `json:"rx_pkts"`
}

// DecodeSnap reports LDPC decode-iteration accounting: how many code
// blocks were decoded, the mean and max BP iterations they consumed, and
// the share that converged (fused syndrome satisfied) before exhausting
// the iteration budget.
type DecodeSnap struct {
	Blocks        int64   `json:"blocks"`
	Iters         int64   `json:"iters"`
	MeanIters     float64 `json:"mean_iters"`
	MaxIters      int64   `json:"max_iters"`
	EarlyExits    int64   `json:"early_exits"`
	EarlyExitRate float64 `json:"early_exit_rate"`
}

// KernelRow names the kernel implementation one pipeline stage runs.
type KernelRow struct {
	Stage  string `json:"stage"`  // "decode", "fft" or "demod"
	Kernel string `json:"kernel"` // "avx2" or "generic"
}

// String renders the row as stage=kernel, the cmd/agora start-up form.
func (r KernelRow) String() string { return r.Stage + "=" + r.Kernel }

// GCSnap carries the process-wide garbage-collector totals (from the
// runtime/metrics sampler in gcstats.go — no stop-the-world, unlike
// runtime.ReadMemStats) so a dashboard can confirm the zero-allocation
// frame loop keeps GC quiet mid-run.
type GCSnap struct {
	NumGC        uint32  `json:"num_gc"`
	PauseTotalMS float64 `json:"pause_total_ms"`
}

// Snapshot is the JSON-friendly view of Metrics that expvar publishes.
// Its scalar fields are the metric table's rows (table.go).
type Snapshot struct {
	Frames        int64       `json:"frames"`
	Dropped       int64       `json:"dropped"`
	DeadlineMiss  int64       `json:"deadline_miss"`
	FrameBudgetMS float64     `json:"frame_budget_ms"`
	Latency       LatencySnap `json:"latency"`
	// Queues is empty only in fleet totals: per-cell gauges do not add up.
	Queues    map[string]QueueGauge `json:"queues,omitempty"`
	Tasks     map[string]TaskSnap   `json:"tasks"`
	Arena     ArenaSnap             `json:"arena"`
	Fronthaul FronthaulSnap         `json:"fronthaul"`
	Decode    DecodeSnap            `json:"decode"`
	// Kernels is Metrics.Kernels.
	Kernels []KernelRow `json:"kernels,omitempty"`
	GC      GCSnap      `json:"gc"`
	// SLO is the live per-stage budget attribution (DESIGN §12),
	// present once at least one frame has completed with the recorder on.
	SLO []StageSLO `json:"slo,omitempty"`
	// Incidents counts flight-recorder captures so far.
	Incidents int64 `json:"incidents"`
	// QueueMaxResetUnixMS is the wall-clock of the last ResetHighWater
	// (0 = never): the window start for the QueueMax gauges.
	QueueMaxResetUnixMS int64 `json:"queue_max_reset_unix_ms,omitempty"`
}

// gaugeName labels a gauge index for snapshots.
func gaugeName(i int) string {
	switch i {
	case GaugeRX:
		return "RX"
	case GaugeComp:
		return "Completion"
	default:
		return queue.TaskType(i).String()
	}
}

// Snap builds a point-in-time snapshot: every table row's live atomic,
// then the histograms, gauges and lists no row holds. Safe to call at
// any moment.
func (m *Metrics) Snap() Snapshot {
	s := Snapshot{
		FrameBudgetMS:       float64(m.FrameBudgetNS.Load()) / 1e6,
		Latency:             latencySnap(&m.Latency),
		Queues:              make(map[string]QueueGauge, NumGauges),
		Tasks:               make(map[string]TaskSnap),
		Kernels:             m.Kernels,
		GC:                  readGC(),
		SLO:                 m.SLORows(),
		QueueMaxResetUnixMS: m.HighWaterReset.Load() / 1e6,
	}
	for i := range table {
		if r := &table[i]; r.live != nil {
			*r.i(&s) = r.live(m).Load()
		}
	}
	s.Decode.MaxIters = int64(m.DecodeIterHist.Max())
	s.ratios()
	for i := 0; i < NumGauges; i++ {
		s.Queues[gaugeName(i)] = QueueGauge{
			Depth: m.QueueDepth[i].Load(),
			Max:   m.QueueMax[i].Load(),
		}
	}
	return s
}

// latencySnap summarizes a latency histogram in milliseconds.
func latencySnap(h *stats.Hist) LatencySnap {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return LatencySnap{
		Count:  h.Count(),
		MeanMS: ms(h.Mean()),
		P50MS:  ms(h.Quantile(50)),
		P99MS:  ms(h.Quantile(99)),
		P999MS: ms(h.Quantile(99.9)),
		MaxMS:  ms(h.Max()),
	}
}

// SLORows summarizes the live per-stage budget-attribution histograms,
// ordered by pipeline stage; stages with no completed frames are omitted.
func (m *Metrics) SLORows() []StageSLO {
	budget := float64(m.FrameBudgetNS.Load())
	var rows []StageSLO
	for i := range m.StageBusy {
		h := &m.StageBusy[i]
		n := h.Count()
		if n == 0 {
			continue
		}
		us := func(d time.Duration) float64 { return float64(d) / 1e3 }
		row := StageSLO{
			Stage:      queue.TaskType(i).String(),
			Frames:     n,
			MeanBusyUS: us(h.Mean()),
			P50BusyUS:  us(h.Quantile(50)),
			P99BusyUS:  us(h.Quantile(99)),
			MaxBusyUS:  us(h.Max()),
		}
		if budget > 0 {
			row.MeanShare = float64(h.Mean()) / budget
		}
		rows = append(rows, row)
	}
	return rows
}

// TaskAcc is a single-writer mean/std accumulator whose state is
// atomically readable: the owning worker is the only goroutine that
// writes, so updates are plain load-modify-store on atomic cells (no CAS),
// while a monitoring thread may snapshot mid-run without a data race. A
// reader can observe a count that lags the sums by a few samples; for
// microsecond-scale task costs that skew is far below reporting
// resolution.
type TaskAcc struct {
	n    atomic.Int64
	sum  atomic.Uint64 // Float64bits of Σx
	sum2 atomic.Uint64 // Float64bits of Σx²
}

// AddN records n samples of value x each. Only the owning goroutine may
// call it.
func (a *TaskAcc) AddN(n int, x float64) {
	fn := float64(n)
	a.sum.Store(math.Float64bits(math.Float64frombits(a.sum.Load()) + fn*x))
	a.sum2.Store(math.Float64bits(math.Float64frombits(a.sum2.Load()) + fn*x*x))
	a.n.Add(int64(n))
}

// Add records one sample.
func (a *TaskAcc) Add(x float64) { a.AddN(1, x) }

// Snapshot returns (count, Σx, Σx²) as of now; safe from any goroutine.
func (a *TaskAcc) Snapshot() (n int64, sum, sum2 float64) {
	return a.n.Load(),
		math.Float64frombits(a.sum.Load()),
		math.Float64frombits(a.sum2.Load())
}
