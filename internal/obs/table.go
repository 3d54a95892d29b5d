package obs

import (
	"sort"
	"sync/atomic"
)

// The metric table (DESIGN §12). Every number the live surfaces publish
// is one row below: Metrics.Snap fills a Snapshot from the rows, the
// Prometheus renderer walks them in order, and fleet totals merge
// Snapshots row by row. Adding a counter is one Metrics field, one
// Snapshot field, one row, and its increment on the hot path, which
// stays a direct atomic add: the table is read only at snapshot time.

// kind is a row's Prometheus type.
type kind string

const (
	counter kind = "counter"
	gauge   kind = "gauge"
	summary kind = "summary"
	// ratio is a gauge recomputed from a numerator and a denominator
	// (0 while the denominator is 0), in Snap and again after a merge.
	ratio kind = "ratio"
)

// promType is the exposition TYPE of a kind.
func (k kind) promType() string {
	if k == ratio {
		return string(gauge)
	}
	return string(k)
}

// mergeRule says how fleet totals combine a scalar row across cells;
// ratio rows are always recomputed from their merged counters.
type mergeRule uint8

const (
	mergeSum mergeRule = iota
	mergeMax
)

// emitFn adds one Prometheus sample to the row's family; suffix is ""
// or, for a summary, "_sum" or "_count".
type emitFn func(suffix string, v float64, labels ...promLabel)

// row is one metric. A scalar row points at one Snapshot field (i or f);
// the rest render themselves through samples.
type row struct {
	name, help string
	kind       kind
	merge      mergeRule
	// process marks a process-wide row: rendered once, never per cell.
	process bool
	// ms marks a float Snapshot value in milliseconds, rendered in seconds.
	ms bool

	// live is the row's Metrics atomic; nil when Snap or the engine
	// fills the field another way.
	live func(*Metrics) *atomic.Int64
	i    func(*Snapshot) *int64
	f    func(*Snapshot) *float64
	// of is a ratio row's numerator and denominator.
	of func(*Snapshot) (num, den int64)
	// samples renders rows that are not one scalar: labeled series,
	// summaries and conditional gauges.
	samples func(*Snapshot, emitFn)
}

// value is a scalar row's Prometheus value in s.
func (r *row) value(s *Snapshot) float64 {
	if r.i != nil {
		return float64(*r.i(s))
	}
	if r.ms {
		return *r.f(s) / 1e3
	}
	return *r.f(s)
}

var table = []row{
	{name: "agora_frames_total", help: "Completed frames.", kind: counter,
		live: func(m *Metrics) *atomic.Int64 { return &m.FramesDone },
		i:    func(s *Snapshot) *int64 { return &s.Frames }},
	{name: "agora_frames_dropped_total", help: "Frames abandoned (timeout, slot conflict, loss).", kind: counter,
		live: func(m *Metrics) *atomic.Int64 { return &m.FramesDropped },
		i:    func(s *Snapshot) *int64 { return &s.Dropped }},
	{name: "agora_results_lost_total", help: "Frame results discarded because the Results channel was full.", kind: counter,
		live: func(m *Metrics) *atomic.Int64 { return &m.ResultsLost },
		i:    func(s *Snapshot) *int64 { return &s.ResultsLost }},
	{name: "agora_deadline_miss_total", help: "Completed frames that exceeded the frame budget.", kind: counter,
		live: func(m *Metrics) *atomic.Int64 { return &m.DeadlineMiss },
		i:    func(s *Snapshot) *int64 { return &s.DeadlineMiss }},
	{name: "agora_incidents_total", help: "Flight-recorder incident captures.", kind: counter,
		live: func(m *Metrics) *atomic.Int64 { return &m.Incidents },
		i:    func(s *Snapshot) *int64 { return &s.Incidents }},
	{name: "agora_frame_budget_seconds", help: "On-air frame duration (the per-frame deadline).", kind: gauge,
		merge: mergeMax, ms: true,
		f: func(s *Snapshot) *float64 { return &s.FrameBudgetMS }},
	{name: "agora_frame_latency_seconds", help: "Frame processing latency (first packet to last decode/TX).", kind: summary,
		samples: func(s *Snapshot, emit emitFn) { latencySamples(&s.Latency, emit) }},
	{name: "agora_frame_latency_max_seconds", help: "Largest frame latency observed.", kind: gauge,
		merge: mergeMax, ms: true,
		f: func(s *Snapshot) *float64 { return &s.Latency.MaxMS }},
	{name: "agora_queue_depth", help: "Sampled queue depth.", kind: gauge,
		samples: func(s *Snapshot, emit emitFn) {
			for _, q := range sortedKeys(s.Queues) {
				emit("", float64(s.Queues[q].Depth), promLabel{"queue", q})
			}
		}},
	{name: "agora_queue_depth_max", help: "Queue depth high-water mark since start.", kind: gauge,
		samples: func(s *Snapshot, emit emitFn) {
			for _, q := range sortedKeys(s.Queues) {
				emit("", float64(s.Queues[q].Max), promLabel{"queue", q})
			}
		}},
	{name: "agora_tasks_total", help: "Tasks executed.", kind: counter,
		samples: func(s *Snapshot, emit emitFn) {
			for _, t := range sortedKeys(s.Tasks) {
				emit("", float64(s.Tasks[t].Count), promLabel{"task", t})
			}
		}},
	{name: "agora_task_busy_seconds_total", help: "Cumulative worker time per task type.", kind: counter,
		samples: func(s *Snapshot, emit emitFn) {
			for _, t := range sortedKeys(s.Tasks) {
				emit("", s.Tasks[t].TotalMS/1e3, promLabel{"task", t})
			}
		}},
	{name: "agora_stage_busy_seconds", help: "Per-frame busy time by pipeline stage (live SLO attribution).", kind: summary,
		samples: func(s *Snapshot, emit emitFn) {
			for _, r := range s.SLO {
				stage := promLabel{"stage", r.Stage}
				emit("", r.P50BusyUS/1e6, stage, promLabel{"quantile", "0.5"})
				emit("", r.P99BusyUS/1e6, stage, promLabel{"quantile", "0.99"})
				emit("_sum", r.MeanBusyUS/1e6*float64(r.Frames), stage)
				emit("_count", float64(r.Frames), stage)
			}
		}},
	{name: "agora_stage_span_seconds", help: "Per-frame wall-clock span by pipeline stage (live SLO attribution).", kind: summary,
		samples: func(s *Snapshot, emit emitFn) {
			for _, r := range s.SLO {
				stage := promLabel{"stage", r.Stage}
				emit("", r.P50SpanUS/1e6, stage, promLabel{"quantile", "0.5"})
				emit("", r.P99SpanUS/1e6, stage, promLabel{"quantile", "0.99"})
				emit("_sum", r.MeanSpanUS/1e6*float64(r.Frames), stage)
				emit("_count", float64(r.Frames), stage)
			}
		}},
	{name: "agora_stage_budget_share", help: "Mean fraction of the frame budget consumed by each stage.", kind: gauge,
		samples: func(s *Snapshot, emit emitFn) {
			for _, r := range s.SLO {
				emit("", r.MeanShare, promLabel{"stage", r.Stage})
			}
		}},
	{name: "agora_free_states", help: "Buffer slots without an admitted frame.", kind: gauge,
		live: func(m *Metrics) *atomic.Int64 { return &m.FreeStates },
		i:    func(s *Snapshot) *int64 { return &s.Arena.FreeStates }},
	{name: "agora_zf_cache_hits_total", help: "ZF coherence-cache hits.", kind: counter,
		live: func(m *Metrics) *atomic.Int64 { return &m.ZFCacheHits },
		i:    func(s *Snapshot) *int64 { return &s.Arena.ZFCacheHits }},
	{name: "agora_zf_cache_misses_total", help: "ZF coherence-cache misses.", kind: counter,
		live: func(m *Metrics) *atomic.Int64 { return &m.ZFCacheMisses },
		i:    func(s *Snapshot) *int64 { return &s.Arena.ZFCacheMisses }},
	{name: "agora_zf_cache_hit_rate", help: "Lifetime ZF cache hit fraction.", kind: ratio,
		f: func(s *Snapshot) *float64 { return &s.Arena.ZFCacheHitRate },
		of: func(s *Snapshot) (int64, int64) {
			return s.Arena.ZFCacheHits, s.Arena.ZFCacheHits + s.Arena.ZFCacheMisses
		}},
	{name: "agora_decode_blocks_total", help: "LDPC code blocks decoded.", kind: counter,
		live: func(m *Metrics) *atomic.Int64 { return &m.DecodeBlocks },
		i:    func(s *Snapshot) *int64 { return &s.Decode.Blocks }},
	{name: "agora_decode_iterations_total", help: "BP iterations consumed by decoded blocks.", kind: counter,
		live: func(m *Metrics) *atomic.Int64 { return &m.DecodeIters },
		i:    func(s *Snapshot) *int64 { return &s.Decode.Iters }},
	{name: "agora_decode_early_exits_total", help: "Blocks whose syndrome check converged before the iteration budget, including blocks that arrived as codewords (0 iterations).", kind: counter,
		live: func(m *Metrics) *atomic.Int64 { return &m.DecodeEarlyExits },
		i:    func(s *Snapshot) *int64 { return &s.Decode.EarlyExits }},
	{name: "agora_decode_iterations_mean", help: "Mean BP iterations per decoded block; a block that arrived as a codeword counts 0.", kind: ratio,
		f:  func(s *Snapshot) *float64 { return &s.Decode.MeanIters },
		of: func(s *Snapshot) (int64, int64) { return s.Decode.Iters, s.Decode.Blocks }},
	{name: "agora_decode_iterations_max", help: "Largest per-block iteration count observed.", kind: gauge,
		merge: mergeMax,
		i:     func(s *Snapshot) *int64 { return &s.Decode.MaxIters }},
	{name: "agora_decode_early_exit_rate", help: "Fraction of blocks that converged before the iteration budget.", kind: ratio,
		f:  func(s *Snapshot) *float64 { return &s.Decode.EarlyExitRate },
		of: func(s *Snapshot) (int64, int64) { return s.Decode.EarlyExits, s.Decode.Blocks }},
	{name: "agora_seq_gaps_total", help: "Missing fronthaul sequence numbers.", kind: counter,
		live: func(m *Metrics) *atomic.Int64 { return &m.SeqGaps },
		i:    func(s *Snapshot) *int64 { return &s.Fronthaul.SeqGaps }},
	{name: "agora_seq_late_total", help: "Late or duplicate fronthaul packets.", kind: counter,
		live: func(m *Metrics) *atomic.Int64 { return &m.SeqLate },
		i:    func(s *Snapshot) *int64 { return &s.Fronthaul.SeqLate }},
	{name: "agora_fec_recovered_total", help: "Payloads rebuilt from Reed-Solomon parity.", kind: counter,
		live: func(m *Metrics) *atomic.Int64 { return &m.FECRecovered },
		i:    func(s *Snapshot) *int64 { return &s.Fronthaul.FECRecovered }},
	{name: "agora_manager_handoffs_total", help: "Processors workers handed to the manager at a frame's last task of a type.", kind: counter,
		live: func(m *Metrics) *atomic.Int64 { return &m.Handoffs },
		i:    func(s *Snapshot) *int64 { return &s.Manager.Handoffs }},
	{name: "agora_manager_lag_seconds", help: "Time from a task's completion stamp to the manager's fold of it.", kind: summary,
		samples: func(s *Snapshot, emit emitFn) {
			g := &s.Manager
			emit("", g.LagP50US/1e6, promLabel{"quantile", "0.5"})
			emit("", g.LagP99US/1e6, promLabel{"quantile", "0.99"})
			emit("_sum", g.LagMeanUS/1e6*float64(g.LagCount))
			emit("_count", float64(g.LagCount))
		}},
	// The engine fills the packet counters from its own RX path and the
	// transport's Stats (core.Engine.MetricsSnapshot).
	{name: "agora_rx_drops_total", help: "Packets rejected at admission.", kind: counter,
		i: func(s *Snapshot) *int64 { return &s.Fronthaul.RxDrops }},
	{name: "agora_rx_packets_total", help: "Packets received.", kind: counter,
		i: func(s *Snapshot) *int64 { return &s.Fronthaul.RxPkts }},
	{name: "agora_tx_packets_total", help: "Packets sent.", kind: counter,
		i: func(s *Snapshot) *int64 { return &s.Fronthaul.TxPkts }},
	{name: "agora_tx_drops_total", help: "Send-queue overflow drops.", kind: counter,
		i: func(s *Snapshot) *int64 { return &s.Fronthaul.TxDrops }},
	{name: "agora_kernel_info", help: "Kernel implementation each vectorised stage runs (value 1; stage and implementation in the labels).", kind: gauge,
		process: true,
		samples: func(s *Snapshot, emit emitFn) {
			for _, k := range s.Kernels {
				emit("", 1, promLabel{"stage", k.Stage}, promLabel{"kernel", k.Kernel})
			}
		}},
	{name: "agora_gc_cycles_total", help: "Completed GC cycles.", kind: counter,
		process: true,
		samples: func(s *Snapshot, emit emitFn) { emit("", float64(s.GC.NumGC)) }},
	{name: "agora_gc_pause_seconds_total", help: "Cumulative GC stop-the-world pause time.", kind: counter,
		process: true,
		samples: func(s *Snapshot, emit emitFn) { emit("", s.GC.PauseTotalMS/1e3) }},
}

// latencySamples renders a latency summary: three quantiles, then the
// sum and count.
func latencySamples(lat *LatencySnap, emit emitFn) {
	emit("", lat.P50MS/1e3, promLabel{"quantile", "0.5"})
	emit("", lat.P99MS/1e3, promLabel{"quantile", "0.99"})
	emit("", lat.P999MS/1e3, promLabel{"quantile", "0.999"})
	emit("_sum", lat.MeanMS/1e3*float64(lat.Count))
	emit("_count", float64(lat.Count))
}

// ratios recomputes every ratio row from its numerator and denominator.
func (s *Snapshot) ratios() {
	for i := range table {
		r := &table[i]
		if r.kind != ratio {
			continue
		}
		num, den := r.of(s)
		*r.f(s) = 0
		if den > 0 {
			*r.f(s) = float64(num) / float64(den)
		}
	}
}

// merge folds o into s row by row (sum or max; ratios recomputed from
// the merged counters) and adds o's per-task totals.
func (s *Snapshot) merge(o *Snapshot) {
	for i := range table {
		r := &table[i]
		switch {
		case r.kind == ratio:
		case r.i != nil:
			fold(r.merge, r.i(s), *r.i(o))
		case r.f != nil:
			fold(r.merge, r.f(s), *r.f(o))
		}
	}
	s.ratios()
	for name, task := range o.Tasks {
		agg := s.Tasks[name]
		agg.Count += task.Count
		agg.TotalMS += task.TotalMS
		if agg.Count > 0 {
			agg.MeanUS = agg.TotalMS * 1e3 / float64(agg.Count)
		}
		s.Tasks[name] = agg
	}
}

func fold[T int64 | float64](rule mergeRule, dst *T, v T) {
	if rule == mergeMax {
		*dst = max(*dst, v)
	} else {
		*dst += v
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
