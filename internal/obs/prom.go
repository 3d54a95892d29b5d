package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// Dependency-free Prometheus text exposition (format 0.0.4): the
// /metrics endpoint cmd/agora serves for both a single engine and a
// -cells N fleet. Families are built in memory from the same Snapshot /
// FleetSnapshot documents expvar publishes, so the two surfaces can
// never drift; per-cell series carry a cell="N" label. The model layer
// exists because the exposition format requires every series of a family
// grouped under one HELP/TYPE header — per-cell emission must interleave
// cells within families, not families within cells.

// PromContentType is the exposition Content-Type header value.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promLabel is one name="value" pair.
type promLabel struct{ name, value string }

// promSample is one series sample within a family.
type promSample struct {
	labels []promLabel
	value  float64
}

// promFamily is one metric family: a HELP/TYPE header plus its samples.
type promFamily struct {
	name, typ, help string
	samples         []promSample
}

// promSet accumulates families in first-touch order.
type promSet struct {
	order    []string
	families map[string]*promFamily
}

func newPromSet() *promSet {
	return &promSet{families: make(map[string]*promFamily)}
}

// add appends one sample, creating the family on first touch.
func (ps *promSet) add(name, typ, help string, value float64, labels ...promLabel) {
	f, ok := ps.families[name]
	if !ok {
		f = &promFamily{name: name, typ: typ, help: help}
		ps.families[name] = f
		ps.order = append(ps.order, name)
	}
	f.samples = append(f.samples, promSample{labels: labels, value: value})
}

// escapeLabelValue applies the exposition format's label escaping:
// backslash, double-quote, and newline.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// write renders the set in exposition format.
func (ps *promSet) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, name := range ps.order {
		f := ps.families[name]
		if _, err := fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.samples {
			if len(s.labels) == 0 {
				if _, err := fmt.Fprintf(bw, "%s %s\n", f.name, formatValue(s.value)); err != nil {
					return err
				}
				continue
			}
			parts := make([]string, len(s.labels))
			for i, l := range s.labels {
				parts[i] = fmt.Sprintf(`%s="%s"`, l.name, escapeLabelValue(l.value))
			}
			if _, err := fmt.Fprintf(bw, "%s{%s} %s\n",
				f.name, strings.Join(parts, ","), formatValue(s.value)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// formatValue renders a sample value ('%g' matches the reference client's
// float rendering closely enough for scrapers).
func formatValue(v float64) string { return fmt.Sprintf("%g", v) }

// collectSnapshot folds one engine snapshot into the set, tagging every
// series with base (nil for a single engine, cell="N" in a fleet).
func collectSnapshot(ps *promSet, s *Snapshot, base []promLabel) {
	with := func(extra ...promLabel) []promLabel {
		if len(base) == 0 {
			return extra
		}
		out := make([]promLabel, 0, len(base)+len(extra))
		out = append(out, base...)
		return append(out, extra...)
	}
	add := func(name, typ, help string, v float64, labels ...promLabel) {
		ps.add(name, typ, help, v, with(labels...)...)
	}
	sec := func(msv float64) float64 { return msv / 1e3 }

	add("agora_frames_total", "counter", "Completed frames.", float64(s.Frames))
	add("agora_frames_dropped_total", "counter", "Frames abandoned (timeout, slot conflict, loss).", float64(s.Dropped))
	add("agora_deadline_miss_total", "counter", "Completed frames that exceeded the frame budget.", float64(s.DeadlineMiss))
	add("agora_incidents_total", "counter", "Flight-recorder incident captures.", float64(s.Incidents))
	add("agora_frame_budget_seconds", "gauge", "On-air frame duration (the per-frame deadline).", sec(s.FrameBudgetMS))

	lat := &s.Latency
	for _, q := range []struct {
		q  string
		ms float64
	}{{"0.5", lat.P50MS}, {"0.99", lat.P99MS}, {"0.999", lat.P999MS}} {
		add("agora_frame_latency_seconds", "summary",
			"Frame processing latency (first packet to last decode/TX).",
			sec(q.ms), promLabel{"quantile", q.q})
	}
	add("agora_frame_latency_seconds_sum", "counter",
		"Sum companion of agora_frame_latency_seconds.",
		sec(lat.MeanMS)*float64(lat.Count))
	add("agora_frame_latency_seconds_count", "counter",
		"Count companion of agora_frame_latency_seconds.", float64(lat.Count))
	add("agora_frame_latency_max_seconds", "gauge",
		"Largest frame latency observed.", sec(lat.MaxMS))

	// Deterministic order for map-backed series.
	queues := make([]string, 0, len(s.Queues))
	for q := range s.Queues {
		queues = append(queues, q)
	}
	sort.Strings(queues)
	for _, q := range queues {
		g := s.Queues[q]
		add("agora_queue_depth", "gauge", "Sampled queue depth.",
			float64(g.Depth), promLabel{"queue", q})
		add("agora_queue_depth_max", "gauge", "Queue depth high-water mark (windowed by ResetHighWater).",
			float64(g.Max), promLabel{"queue", q})
	}
	if s.QueueMaxResetUnixMS > 0 {
		add("agora_queue_max_reset_timestamp_seconds", "gauge",
			"Unix time of the last high-water reset.", float64(s.QueueMaxResetUnixMS)/1e3)
	}

	tasks := make([]string, 0, len(s.Tasks))
	for t := range s.Tasks {
		tasks = append(tasks, t)
	}
	sort.Strings(tasks)
	for _, t := range tasks {
		ts := s.Tasks[t]
		add("agora_tasks_total", "counter", "Tasks executed.",
			float64(ts.Count), promLabel{"task", t})
		add("agora_task_busy_seconds_total", "counter", "Cumulative worker time per task type.",
			ts.TotalMS/1e3, promLabel{"task", t})
	}

	for _, row := range s.SLO {
		stage := promLabel{"stage", row.Stage}
		usec := func(us float64) float64 { return us / 1e6 }
		for _, q := range []struct {
			q  string
			us float64
		}{{"0.5", row.P50BusyUS}, {"0.99", row.P99BusyUS}} {
			add("agora_stage_busy_seconds", "summary",
				"Per-frame busy time by pipeline stage (live SLO attribution).",
				usec(q.us), stage, promLabel{"quantile", q.q})
		}
		add("agora_stage_busy_seconds_sum", "counter",
			"Sum companion of agora_stage_busy_seconds.",
			usec(row.MeanBusyUS)*float64(row.Frames), stage)
		add("agora_stage_busy_seconds_count", "counter",
			"Count companion of agora_stage_busy_seconds.", float64(row.Frames), stage)
		add("agora_stage_budget_share", "gauge",
			"Mean fraction of the frame budget consumed by each stage.",
			row.MeanShare, stage)
	}

	add("agora_free_states", "gauge", "frameState free-list occupancy.", float64(s.Arena.FreeStates))
	add("agora_zf_cache_hits_total", "counter", "ZF coherence-cache hits.", float64(s.Arena.ZFCacheHits))
	add("agora_zf_cache_misses_total", "counter", "ZF coherence-cache misses.", float64(s.Arena.ZFCacheMisses))
	add("agora_zf_cache_hit_rate", "gauge", "Lifetime ZF cache hit fraction.", s.Arena.ZFCacheHitRate)

	add("agora_decode_blocks_total", "counter", "LDPC code blocks decoded.", float64(s.Decode.Blocks))
	add("agora_decode_iterations_total", "counter", "BP iterations consumed by decoded blocks.", float64(s.Decode.Iters))
	add("agora_decode_early_exits_total", "counter", "Blocks whose syndrome check converged before the iteration budget, including blocks that arrived as codewords (0 iterations).", float64(s.Decode.EarlyExits))
	add("agora_decode_iterations_mean", "gauge", "Mean BP iterations per decoded block; a block that arrived as a codeword counts 0.", s.Decode.MeanIters)
	add("agora_decode_iterations_max", "gauge", "Largest per-block iteration count observed.", float64(s.Decode.MaxIters))
	add("agora_decode_early_exit_rate", "gauge", "Fraction of blocks that converged before the iteration budget.", s.Decode.EarlyExitRate)

	add("agora_seq_gaps_total", "counter", "Missing fronthaul sequence numbers.", float64(s.Fronthaul.SeqGaps))
	add("agora_seq_late_total", "counter", "Late or duplicate fronthaul packets.", float64(s.Fronthaul.SeqLate))
	add("agora_fec_recovered_total", "counter", "Payloads rebuilt from Reed-Solomon parity.", float64(s.Fronthaul.FECRecovered))
	add("agora_rx_drops_total", "counter", "Packets rejected at admission.", float64(s.Fronthaul.RxDrops))
	add("agora_rx_packets_total", "counter", "Packets received.", float64(s.Fronthaul.RxPkts))
	add("agora_tx_packets_total", "counter", "Packets sent.", float64(s.Fronthaul.TxPkts))
	add("agora_tx_drops_total", "counter", "Send-queue overflow drops.", float64(s.Fronthaul.TxDrops))

	// Process-wide series: only meaningful unlabeled (the fleet path emits
	// them once, not per cell).
	if len(base) == 0 {
		collectProcess(ps, s)
	}
}

// collectProcess adds the series that describe the process rather than
// one engine: the kernel table and the GC totals.
func collectProcess(ps *promSet, s *Snapshot) {
	for _, k := range s.Kernels {
		ps.add("agora_kernel_info", "gauge",
			"Kernel implementation each vectorised stage runs (value 1; stage and implementation in the labels).",
			1, promLabel{"stage", k.Stage}, promLabel{"kernel", k.Kernel})
	}
	ps.add("agora_gc_cycles_total", "counter", "Completed GC cycles.", float64(s.GC.NumGC))
	ps.add("agora_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.", s.GC.PauseTotalMS/1e3)
}

// WritePromSnapshot renders one engine snapshot in exposition format.
func WritePromSnapshot(w io.Writer, s *Snapshot) error {
	ps := newPromSet()
	collectSnapshot(ps, s, nil)
	return ps.write(w)
}

// WritePromFleet renders a fleet snapshot: fleet-level series plus every
// cell's series under a cell="N" label.
func WritePromFleet(w io.Writer, fs *FleetSnapshot) error {
	ps := newPromSet()
	ps.add("agora_cells", "gauge", "Cells in the fleet.", float64(fs.Cells))
	lat := &fs.Latency
	for _, q := range []struct {
		q  string
		ms float64
	}{{"0.5", lat.P50MS}, {"0.99", lat.P99MS}, {"0.999", lat.P999MS}} {
		ps.add("agora_fleet_frame_latency_seconds", "summary",
			"Cross-cell frame latency (merged histogram).",
			q.ms/1e3, promLabel{"quantile", q.q})
	}
	ps.add("agora_fleet_frame_latency_seconds_sum", "counter",
		"Sum companion of agora_fleet_frame_latency_seconds.",
		lat.MeanMS/1e3*float64(lat.Count))
	ps.add("agora_fleet_frame_latency_seconds_count", "counter",
		"Count companion of agora_fleet_frame_latency_seconds.", float64(lat.Count))
	for _, row := range fs.SLO {
		ps.add("agora_fleet_stage_budget_share", "gauge",
			"Fleet-wide mean fraction of the frame budget by stage.",
			row.MeanShare, promLabel{"stage", row.Stage})
	}
	for i := range fs.PerCell {
		c := &fs.PerCell[i]
		cell := promLabel{"cell", fmt.Sprintf("%d", c.Cell)}
		ps.add("agora_cell_state", "gauge",
			"Cell lifecycle state (value 1; state in the label).",
			1, cell, promLabel{"state", c.State})
		collectSnapshot(ps, &c.Snapshot, []promLabel{cell})
	}
	// Process-wide series: emit once at fleet level from the first cell's
	// reading (all cells share the runtime and the CPU).
	if len(fs.PerCell) > 0 {
		collectProcess(ps, &fs.PerCell[0].Snapshot)
	}
	return ps.write(w)
}

// PromHandler serves a single engine's /metrics from a snapshot source.
func PromHandler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		s := snap()
		_ = WritePromSnapshot(w, &s)
	})
}

// PromFleetHandler serves a fleet's /metrics from a snapshot source.
func PromFleetHandler(snap func() FleetSnapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		fs := snap()
		_ = WritePromFleet(w, &fs)
	})
}
