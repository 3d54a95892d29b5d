package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro"
)

// Per-stage breakdown capture (the Table-2 analogue): run a traced uplink
// workload, reconstruct the frame timeline from the engine's event tracer,
// and emit per-stage task counts, worker time, compute share and mean
// per-frame wall span as JSON (plus a human-readable table on stdout).

// stageRow is one pipeline stage's aggregate in the JSON report.
type stageRow struct {
	Stage      string  `json:"stage"`
	Tasks      int     `json:"tasks"`
	MeanUS     float64 `json:"mean_us"`
	BusyMS     float64 `json:"busy_ms"`
	BusyShare  float64 `json:"busy_share"`
	MeanSpanUS float64 `json:"mean_span_us"` // mean per-frame wall span
}

// workerRow is one worker lane's utilization in the JSON report.
type workerRow struct {
	Lane        int     `json:"lane"`
	Events      int     `json:"events"`
	BusyMS      float64 `json:"busy_ms"`
	SpanMS      float64 `json:"span_ms"`
	Utilization float64 `json:"utilization"`
	MaxGapUS    float64 `json:"max_gap_us"`
}

// stagesReport is the full -stages JSON document.
type stagesReport struct {
	Config         string      `json:"config"`
	Frames         int         `json:"frames"`
	Workers        int         `json:"workers"`
	Stages         []stageRow  `json:"stages"`
	WorkerUtil     []workerRow `json:"worker_util"`
	DeadlineMisses int64       `json:"deadline_misses"`
	MedianMS       float64     `json:"median_ms"`
	P999MS         float64     `json:"p99_9_ms"`
	// ZF coherence-cache effect (DESIGN §14): the main run keeps the
	// cache on; a second identically-seeded run with DisableZFCache
	// isolates what recomputing the inverse every frame would cost.
	ZFCacheHitRate   float64 `json:"zf_cache_hit_rate"`
	ZFShareCached    float64 `json:"zf_share_cached"`
	ZFShareUncached  float64 `json:"zf_share_uncached"`
	ZFBusyMSCached   float64 `json:"zf_busy_ms_cached"`
	ZFBusyMSUncached float64 `json:"zf_busy_ms_uncached"`
	// DecodeIters is the decode-iteration accounting of the main (layered)
	// run; DecodeItersFlooding is from a third identically-seeded run with
	// DisableLayeredDecode, so the pair prices the layered schedule the
	// same way the ZF rows price the coherence cache (DESIGN §13).
	DecodeIters         agora.DecodeSnap `json:"decode_iters"`
	DecodeItersFlooding agora.DecodeSnap `json:"decode_iters_flooding"`
	// Kernels is the kernel implementation each vectorised stage used.
	Kernels []agora.KernelRow `json:"kernels"`
	// SLOAttribution is the live recorder's per-stage budget attribution
	// (DESIGN §17): per-frame busy-time distribution and mean share of
	// the frame budget, folded online by the manager — unlike Stages
	// above, which are reconstructed from the trace rings at quiescence.
	SLOAttribution []agora.StageSLO `json:"slo_attribution"`
}

// runStages captures a traced uplink run and writes the report to out
// ('-' for stdout).
func runStages(out string, full bool, frames, workers int, seed int64) error {
	cfg := agora.Default64x16()
	if !full {
		cfg.Antennas, cfg.Users = 16, 4
		cfg.OFDMSize = 512
		cfg.DataSubcarriers = 304
		cfg.LiftingZ = 0
		cfg.Symbols = agora.UplinkSchedule(1, 6)
	}
	if frames <= 0 {
		frames = 20
	}
	if workers <= 0 {
		// Deterministic defaults so regenerated reports are comparable:
		// 2 workers matches the Table-1 benchmarks on the quick config,
		// 26 is the paper's worker count at full 64×16 scale.
		workers = 2
		if full {
			workers = 26
		}
	}
	// Size the trace rings for the whole run: the default window-sized ring
	// would wrap and drop the early frames from the breakdown.
	opts := agora.Options{Workers: workers, TraceCapacity: 1 << 16}
	sum, err := agora.RunUplink(cfg, opts, agora.Rayleigh, 25, frames, false, seed)
	if err != nil {
		return err
	}
	tl := sum.Timeline
	if tl == nil {
		return fmt.Errorf("stages: tracing disabled, no timeline captured")
	}
	rep := stagesReport{
		Config:         cfg.String(),
		Frames:         sum.Frames,
		Workers:        workers,
		DeadlineMisses: sum.Metrics.DeadlineMiss,
		MedianMS:       sum.Latency.Median().Seconds() * 1e3,
		P999MS:         sum.Latency.P999().Seconds() * 1e3,
		ZFCacheHitRate: sum.Metrics.Arena.ZFCacheHitRate,
		DecodeIters:    sum.Metrics.Decode,
		Kernels:        sum.Metrics.Kernels,
		SLOAttribution: sum.Metrics.SLO,
	}
	totalBusy := tl.TotalBusyNS()
	// Mean per-frame wall span per stage, over the frames in the capture
	// window (the ring holds the most recent frames of a long run).
	spanSum := map[string]int64{}
	spanN := map[string]int{}
	for _, ft := range tl.Frames {
		for _, s := range ft.Stages {
			spanSum[s.Type.String()] += s.SpanNS()
			spanN[s.Type.String()]++
		}
	}
	for _, s := range tl.Stages {
		name := s.Type.String()
		row := stageRow{
			Stage:  name,
			Tasks:  s.Tasks,
			BusyMS: float64(s.BusyNS) / 1e6,
		}
		if s.Tasks > 0 {
			row.MeanUS = float64(s.BusyNS) / 1e3 / float64(s.Tasks)
		}
		if totalBusy > 0 {
			row.BusyShare = float64(s.BusyNS) / float64(totalBusy)
		}
		if n := spanN[name]; n > 0 {
			row.MeanSpanUS = float64(spanSum[name]) / 1e3 / float64(n)
		}
		rep.Stages = append(rep.Stages, row)
	}
	for _, r := range rep.Stages {
		if r.Stage == "ZF" {
			rep.ZFShareCached, rep.ZFBusyMSCached = r.BusyShare, r.BusyMS
		}
	}
	// Second, identically-seeded run with the cache ablated: the ZF rows'
	// delta is the per-frame inverse recompute the cache removes.
	uncOpts := opts
	uncOpts.DisableZFCache = true
	unc, err := agora.RunUplink(cfg, uncOpts, agora.Rayleigh, 25, frames, false, seed)
	if err != nil {
		return err
	}
	if unc.Timeline != nil {
		if tb := unc.Timeline.TotalBusyNS(); tb > 0 {
			for _, s := range unc.Timeline.Stages {
				if s.Type.String() == "ZF" {
					rep.ZFShareUncached = float64(s.BusyNS) / float64(tb)
					rep.ZFBusyMSUncached = float64(s.BusyNS) / 1e6
				}
			}
		}
	}
	// Third identically-seeded run with the flooding decode schedule: the
	// iteration-count delta against the layered main run is the convergence
	// speedup the layered schedule buys (the busy-time effect shows up in
	// the Decode stage row of a DisableLayeredDecode capture).
	fldOpts := opts
	fldOpts.DisableLayeredDecode = true
	fld, err := agora.RunUplink(cfg, fldOpts, agora.Rayleigh, 25, frames, false, seed)
	if err != nil {
		return err
	}
	rep.DecodeItersFlooding = fld.Metrics.Decode
	for _, w := range tl.Workers {
		rep.WorkerUtil = append(rep.WorkerUtil, workerRow{
			Lane:        w.Lane,
			Events:      w.Events,
			BusyMS:      float64(w.BusyNS) / 1e6,
			SpanMS:      float64(w.SpanNS) / 1e6,
			Utilization: w.Utilization(),
			MaxGapUS:    float64(w.MaxGapNS) / 1e3,
		})
	}
	fmt.Printf("per-stage breakdown (%d frames, %d workers, %s)\n",
		rep.Frames, rep.Workers, rep.Config)
	fmt.Printf("%-9s %8s %10s %10s %7s %13s\n",
		"stage", "tasks", "µs/task", "busy ms", "share", "span µs/frame")
	for _, r := range rep.Stages {
		fmt.Printf("%-9s %8d %10.2f %10.2f %6.1f%% %13.1f\n",
			r.Stage, r.Tasks, r.MeanUS, r.BusyMS, r.BusyShare*100, r.MeanSpanUS)
	}
	for _, w := range rep.WorkerUtil {
		fmt.Printf("worker %-2d: %5d events, util %5.1f%%, max idle gap %.1f µs\n",
			w.Lane, w.Events, w.Utilization*100, w.MaxGapUS)
	}
	if len(rep.SLOAttribution) > 0 {
		fmt.Printf("live SLO attribution (per-frame busy µs over %d frames)\n",
			rep.Frames)
		fmt.Printf("%-9s %10s %10s %10s %10s %7s\n",
			"stage", "mean", "p50", "p99", "max", "share")
		for _, r := range rep.SLOAttribution {
			fmt.Printf("%-9s %10.1f %10.1f %10.1f %10.1f %6.1f%%\n",
				r.Stage, r.MeanBusyUS, r.P50BusyUS, r.P99BusyUS, r.MaxBusyUS,
				r.MeanShare*100)
		}
	}
	if d := rep.DecodeIters; d.Blocks > 0 {
		fmt.Printf("decode iterations (per code block, %d blocks)\n", d.Blocks)
		fmt.Printf("%-9s %10s %8s %12s\n", "schedule", "mean iter", "max", "early-exit")
		fmt.Printf("%-9s %10.2f %8d %11.1f%%\n",
			"layered", d.MeanIters, d.MaxIters, d.EarlyExitRate*100)
		if f := rep.DecodeItersFlooding; f.Blocks > 0 {
			fmt.Printf("%-9s %10.2f %8d %11.1f%%\n",
				"flooding", f.MeanIters, f.MaxIters, f.EarlyExitRate*100)
		}
	}
	fmt.Printf("deadline misses: %d (incl. warmup); latency median %.3f ms, p99.9 %.3f ms\n",
		rep.DeadlineMisses, rep.MedianMS, rep.P999MS)
	if rep.ZFBusyMSUncached > 0 {
		cut := 100 * (1 - rep.ZFBusyMSCached/rep.ZFBusyMSUncached)
		fmt.Printf("ZF busy share: %.1f%% cached (hit rate %.0f%%) vs %.1f%% uncached — %.0f%% less ZF busy time\n",
			rep.ZFShareCached*100, rep.ZFCacheHitRate*100, rep.ZFShareUncached*100, cut)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(out, b, 0o644)
}
