package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported number. BENCHMARK.json lists exactly these
// (the smoke test compares the two).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the numbers an operator of the cell sees. Frame failures
// travel beside them as the result's attempted/failed counts, and the
// block error ratio with the per-layer set, because both are exactly 0 on
// a healthy run and a relative bound on 0 says nothing.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"frames_per_s", "frames/s", "higher"},
	{"frame_latency_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// stageNames are the core task types the per-stage metrics cover, in
// queue.TaskType order.
var stageNames = []string{"pilotfft", "zf", "fft", "demod", "decode", "encode", "precode", "ifft"}

// perLayer lists the traced run's metrics, layer by layer.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"frame_fail_ratio", "ratio", "lower"},
		{"block_error_ratio", "ratio", "lower"},

		{"fronthaul.pkts_per_frame", "count", "lower"},
		{"fronthaul.bytes_per_frame", "count", "lower"},
		{"fronthaul.parse_ns_per_pkt", "ns", "lower"},
		{"fronthaul.ring_ns_per_pkt", "ns", "lower"},
		{"fronthaul.tx_drops", "count", "lower"},
		{"fronthaul.seq_gaps_per_frame", "count", "lower"},
		{"fronthaul.fec_recovered_per_frame", "count", "higher"},
		{"fronthaul.fec_reconstruct_us_per_burst", "us", "lower"},

		{"fft.calls_per_frame", "count", "lower"},
		{"fft.forward_us_per_call", "us", "lower"},
		{"fft.inverse_us_per_call", "us", "lower"},
		{"fft.busy_ms_per_frame", "ms", "lower"},

		{"mat.zf_groups_per_frame", "count", "lower"},
		{"mat.zf_us_per_group", "us", "lower"},
		{"mat.equalize_us_per_symbol", "us", "lower"},
		{"mat.precode_us_per_symbol", "us", "lower"},
		{"mat.busy_ms_per_frame", "ms", "lower"},

		{"modulation.demod_us_per_symbol", "us", "lower"},
		{"modulation.modulate_us_per_symbol", "us", "lower"},
		{"modulation.busy_ms_per_frame", "ms", "lower"},

		{"ldpc.blocks_per_frame", "count", "lower"},
		{"ldpc.decode_us_per_block", "us", "lower"},
		{"ldpc.encode_us_per_block", "us", "lower"},
		{"ldpc.iters_per_block", "count", "lower"},
		{"ldpc.early_exit_ratio", "ratio", "higher"},
		{"ldpc.block_fail_ratio", "ratio", "lower"},
		{"ldpc.busy_ms_per_frame", "ms", "lower"},

		{"queue.roundtrip_ns", "ns", "lower"},
		{"queue.contended_ns", "ns", "lower"},
	}
	for _, s := range stageNames {
		m = append(m, metricDef{"core.busy_ms_per_frame." + s, "ms", "lower"})
	}
	for _, s := range stageNames {
		m = append(m, metricDef{"core.tasks_per_frame." + s, "count", "lower"})
	}
	return append(m,
		metricDef{"core.worker_util", "ratio", "higher"},
		metricDef{"core.queue_delay_p50_us", "us", "lower"},
		metricDef{"core.zf_cache_hit_ratio", "ratio", "higher"},
		metricDef{"core.solo_speedup", "ratio", "higher"},
		metricDef{"core.solo_latency_p99_ms", "ms", "lower"},
		metricDef{"core.pipelined_latency_p50_ms", "ms", "lower"},
		metricDef{"core.allocs_per_frame", "count", "lower"},
		metricDef{"core.gc_cycles_per_kframe", "count", "lower"},
		metricDef{"core.trace_overhead_ratio", "ratio", "lower"},
		metricDef{"core.paced_latency_p50_ms", "ms", "lower"},
		metricDef{"core.paced_latency_p99_ms", "ms", "lower"},
		metricDef{"core.paced_fail_ratio", "ratio", "lower"},
		metricDef{"core.incidents", "1/frame", "lower"},

		metricDef{"fleet.route_ns_per_pkt", "ns", "lower"},
		metricDef{"fleet.shed_pkts", "count", "lower"},
		metricDef{"fleet.cell_rate_skew", "ratio", "higher"},

		metricDef{"workload.emit_ms_per_frame", "ms", "lower"},
		metricDef{"obs.prom_scrape_us", "us", "lower"},

		metricDef{"bench.replay_ns_per_pkt", "ns", "lower"},
		metricDef{"bench.steal_ratio", "ratio", "lower"},
		metricDef{"bench.pacer_lag_p99_ms", "ms", "lower"},
		metricDef{"bench.walk_ms_per_frame", "ms", "lower"},
		metricDef{"bench.walk_glue_ms_per_frame", "ms", "lower"},
	)
}()

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func quantileNS(ns []int64, q float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return quantile(xs, q)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// segmentRates cuts [0, dur) into whole segments of seg nanoseconds and
// returns each segment's completion rate per second. done holds ascending
// completion offsets. A segment runs from the first completion at or
// after its start to the first at or after its end, so a rate is a count
// over the exact time those completions took, not over a rounded window;
// segments without a closing completion are left out. A stretch shorter
// than seg is one segment.
func segmentRates(done []int64, dur, seg int64) []float64 {
	seg = min(seg, dur)
	var rates []float64
	a := 0
	for lo := int64(0); lo+seg <= dur; lo += seg {
		for a < len(done) && done[a] < lo {
			a++
		}
		b := a
		for b < len(done) && done[b] < lo+seg {
			b++
		}
		if b < len(done) && b > a {
			rates = append(rates, float64(b-a)/(float64(done[b]-done[a])/1e9))
		}
	}
	return rates
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks returns the host's cumulative steal ticks and total ticks from
// the first line of /proc/stat (both 0 where there is no such file).
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
