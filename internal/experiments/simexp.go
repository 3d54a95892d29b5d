package experiments

import (
	"fmt"
	"io"

	"repro/internal/frame"
	"repro/internal/queue"
	"repro/internal/sim"
)

// Fig6 reproduces Figure 6: median processing latency and minimum core
// count versus frame length (1–5 ms), uplink and downlink, for Agora's
// data-parallel design against the pipeline-parallel variant. Runs on
// the calibrated simulator (the paper's result needs 20–30 cores).
func Fig6(w io.Writer, o Opt) error {
	o = o.withDefaults()
	lengths := []int{1, 2, 3, 4, 5}
	if o.Quick {
		lengths = []int{1, 3, 5}
	}
	frames := o.frames(8, 24)
	fmt.Fprintln(w, "# Figure 6: latency & cores vs frame length (64x16 MIMO, simulator)")
	fmt.Fprintln(w, "# paper: Agora ~30% lower latency than pipeline-parallel;")
	fmt.Fprintln(w, "#        uplink 26 cores, downlink 21 cores at every frame length")
	for _, dir := range []string{"uplink", "downlink"} {
		fmt.Fprintf(w, "\n[%s]\n", dir)
		fmt.Fprintf(w, "%-9s %-7s %-8s %-12s %-12s %-7s\n",
			"frame_ms", "cores", "pp_cores", "agora_ms", "pipeline_ms", "ratio")
		for _, ms := range lengths {
			nData := ms*14 - 1
			base := sim.Config{Frame: frame.Default64x16(), Frames: frames}
			if dir == "uplink" {
				base.Frame.Symbols = frame.UplinkSchedule(1, nData)
			} else {
				base.Frame.Symbols = frame.DownlinkSchedule(1, nData)
			}
			cores, ragora, err := minWorkersKeepingUp(base, 4, 40)
			if err != nil {
				return err
			}
			ppBase := base
			ppBase.Mode = sim.PipelineParallel
			ppCores, rpp, err := minWorkersKeepingUp(ppBase, 4, 48)
			if err != nil {
				return err
			}
			am := ragora.MedianLatencyUS() / 1000
			pm := rpp.MedianLatencyUS() / 1000
			fmt.Fprintf(w, "%-9d %-7d %-8d %-12.2f %-12.2f %-7.2f\n",
				ms, cores, ppCores, am, pm, pm/am)
		}
	}
	return nil
}

// Fig8 reproduces Figure 8: uplink processing time and speedup versus the
// number of worker cores for a 1 ms 64×16 frame.
func Fig8(w io.Writer, o Opt) error {
	o = o.withDefaults()
	workers := []int{1, 2, 4, 6, 8, 11, 16, 21, 26, 31}
	if o.Quick {
		workers = []int{1, 2, 4, 8, 16, 26}
	}
	fmt.Fprintln(w, "# Figure 8: uplink processing time & speedup vs workers (64x16, 1 ms frame)")
	fmt.Fprintln(w, "# paper: latency drops to ~1.19 ms at 26 cores, then frame-length bound")
	fmt.Fprintf(w, "%-8s %-14s %-9s %-10s\n", "workers", "processing_ms", "speedup", "keeps_up")
	var t1 float64
	for _, nw := range workers {
		c := sim.Config{Workers: nw, Frames: 1}
		r, err := sim.Run(c)
		if err != nil {
			return err
		}
		l := r.FrameLatencyUS[0] / 1000
		if nw == workers[0] {
			t1 = l
		}
		// Steady-state run for the keeps-up column.
		cs := c
		cs.Frames = 12
		rs, err := sim.Run(cs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d %-14.2f %-9.2f %-10v\n", nw, l, t1/l, rs.KeepsUp)
	}
	return nil
}

// Fig10 reproduces Figure 10: cumulative data-movement time per block as
// worker count grows (left) and as the antenna count grows (right). The
// simulator supplies the scaling; Table "fig10-real" in EXPERIMENTS.md
// cross-checks small sizes on the real engine's dummy-kernel mode.
func Fig10(w io.Writer, o Opt) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "# Figure 10: cumulative data movement time across cores (simulator)")
	fmt.Fprintln(w, "# paper: FFT & Demod dominate; grows slightly with cores, linearly with M")
	show := func(r *sim.Result) string {
		s := ""
		fft := r.BlockMoveMS[queue.TaskPilotFFT] + r.BlockMoveMS[queue.TaskFFT]
		s += fmt.Sprintf("%-8.2f %-9.2f %-7.2f %-9.2f", fft,
			r.BlockMoveMS[queue.TaskDemod], r.BlockMoveMS[queue.TaskZF],
			r.BlockMoveMS[queue.TaskDecode])
		return s
	}
	fmt.Fprintln(w, "\n[left: vs workers, 64x16]")
	fmt.Fprintf(w, "%-8s %-8s %-9s %-7s %-9s (ms, per frame)\n", "workers", "FFT", "Demod", "ZF", "Decode")
	ws := []int{1, 6, 11, 16, 21, 26}
	if o.Quick {
		ws = []int{1, 11, 26}
	}
	for _, nw := range ws {
		r, err := sim.Run(sim.Config{Workers: nw, Frames: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d %s\n", nw, show(r))
	}
	fmt.Fprintln(w, "\n[right: vs antennas, K=16, 26 workers]")
	fmt.Fprintf(w, "%-8s %-8s %-9s %-7s %-9s (ms, per frame)\n", "M", "FFT", "Demod", "ZF", "Decode")
	ms := []int{16, 32, 48, 64}
	if o.Quick {
		ms = []int{16, 64}
	}
	for _, m := range ms {
		r, err := sim.Run(sim.Config{Frame: paperCell(m, 16), Workers: 26, Frames: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d %s\n", m, show(r))
	}
	return nil
}

// Fig11 reproduces Figure 11: inter-core synchronization overhead and the
// minimum core count versus the antenna count.
func Fig11(w io.Writer, o Opt) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "# Figure 11: synchronization overhead vs antennas (K=16, simulator)")
	fmt.Fprintln(w, "# paper: grows with M, <=2.5 ms of the 26 ms budget at 64 antennas")
	fmt.Fprintf(w, "%-6s %-8s %-10s %-12s\n", "M", "cores", "sync_ms", "move_ms")
	ms := []int{16, 32, 48, 64}
	if o.Quick {
		ms = []int{16, 64}
	}
	for _, m := range ms {
		base := sim.Config{Frame: paperCell(m, 16), Frames: o.frames(6, 16)}
		cores, r, err := minWorkersKeepingUp(base, 4, 40)
		if err != nil {
			return err
		}
		perFrame := float64(base.Frames)
		fmt.Fprintf(w, "%-6d %-8d %-10.2f %-12.2f\n", m, cores,
			r.SyncMS/perFrame, r.MoveMS/perFrame)
	}
	return nil
}

// Fig13 reproduces Figure 13: (a) per-block processing spans for Agora vs
// the pipeline-parallel variant, and (b) the milestone breakdown
// (queueing delay, pilots done, ZF done, decode done).
func Fig13(w io.Writer, o Opt) error {
	o = o.withDefaults()
	frames := o.frames(6, 16)
	run := func(mode sim.Mode) (*sim.Result, error) {
		return sim.Run(sim.Config{Workers: 26, Frames: frames, Mode: mode})
	}
	dp, err := run(sim.DataParallel)
	if err != nil {
		return err
	}
	pp, err := run(sim.PipelineParallel)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 13(a): per-block span, 64x16, 1 ms frame, 26 workers (µs)")
	fmt.Fprintln(w, "# paper speedups: FFT 3.45x, ZF 8.79x, Demod 4.18x, Decode 2.08x")
	fmt.Fprintf(w, "%-8s %-10s %-12s %-8s\n", "block", "agora", "pipeline", "ratio")
	rows := []struct {
		name string
		t    queue.TaskType
	}{
		{"FFT", queue.TaskPilotFFT}, {"ZF", queue.TaskZF},
		{"Demod", queue.TaskDemod}, {"Decode", queue.TaskDecode},
	}
	for _, row := range rows {
		a := dp.BlockSpanUS[row.t]
		p := pp.BlockSpanUS[row.t]
		if row.t == queue.TaskPilotFFT {
			// Combine pilot and data FFT spans like the paper's FFT bar.
			if v, ok := dp.BlockSpanUS[queue.TaskFFT]; ok && v > a {
				a = v
			}
			if v, ok := pp.BlockSpanUS[queue.TaskFFT]; ok && v > p {
				p = v
			}
		}
		ratio := 0.0
		if a > 0 {
			ratio = p / a
		}
		fmt.Fprintf(w, "%-8s %-10.0f %-12.0f %-8.2f\n", row.name, a, p, ratio)
	}
	fmt.Fprintln(w, "\n# Figure 13(b): milestones within a frame (µs from first packet)")
	fmt.Fprintf(w, "%-12s %-10s %-10s\n", "milestone", "agora", "pipeline")
	fmt.Fprintf(w, "%-12s %-10.0f %-10.0f\n", "queueing", dp.QueueDelayUS, pp.QueueDelayUS)
	fmt.Fprintf(w, "%-12s %-10.0f %-10.0f\n", "pilot_done", dp.PilotDoneUS, pp.PilotDoneUS)
	fmt.Fprintf(w, "%-12s %-10.0f %-10.0f\n", "zf_done", dp.ZFDoneUS, pp.ZFDoneUS)
	fmt.Fprintf(w, "%-12s %-10.0f %-10.0f\n", "decode_done", dp.DecodeDoneUS, pp.DecodeDoneUS)
	return nil
}

// Table5 models Table 5's server sweep: the paper compares four Xeon
// generations (AVX2 vs AVX-512, different clocks). Without alternate
// hardware, each server becomes a cost-model scale factor measured from
// the paper's own worker counts: AVX2 tasks run ~1.55x slower, newer
// AVX-512 parts ~0.9x. The experiment reports workers needed and median
// latency per profile.
func Table5(w io.Writer, o Opt) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "# Table 5: server profiles (simulator; cost-scaled per SIMD generation)")
	fmt.Fprintln(w, "# paper: AVX2 needs 32 workers @1.34ms; AVX-512 23-26 @1.12-1.19ms")
	fmt.Fprintf(w, "%-26s %-8s %-10s\n", "profile", "workers", "median_ms")
	profiles := []struct {
		name  string
		scale float64
	}{
		{"Xeon-E5-2697v4 (AVX2)", 1.55},
		{"Xeon-Gold-6130 (AVX-512)", 1.00},
		{"Xeon-Gold-6252N (AVX-512)", 0.92},
		{"Xeon-Gold-6240 (AVX-512)", 0.88},
	}
	for _, p := range profiles {
		cost := sim.PaperCosts()
		cost.FFTUS *= p.scale
		cost.ZFUS *= p.scale
		cost.DemodPerSCUS *= p.scale
		cost.DecodeUS *= p.scale
		base := sim.Config{Frames: o.frames(6, 16), Cost: cost}
		cores, r, err := minWorkersKeepingUp(base, 4, 48)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-26s %-8d %-10.2f\n", p.name, cores, r.MedianLatencyUS()/1000)
	}
	return nil
}
