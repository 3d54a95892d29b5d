package sim

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/queue"
)

// ulCfg is the paper's 1 ms 64×16 frame: 1 pilot + 13 uplink symbols.
func ulCfg(workers int, mode Mode) Config {
	return Config{
		Frame:   frame.Default64x16(),
		Workers: workers,
		Mode:    mode,
		Frames:  12,
	}
}

func TestRunCompletesAllFrames(t *testing.T) {
	r, err := Run(ulCfg(26, DataParallel))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.FrameLatencyUS) != 12 {
		t.Fatalf("latencies %d", len(r.FrameLatencyUS))
	}
	for i, l := range r.FrameLatencyUS {
		if l <= 0 {
			t.Fatalf("frame %d latency %v", i, l)
		}
	}
}

func TestPaperHeadline26Cores(t *testing.T) {
	// §6.1.1: Agora processes 1 ms 64×16 uplink frames with 26 workers at
	// ~1.19 ms median latency and keeps up with the frame rate. Under the
	// Table-3-calibrated cost model the simulator must land in that
	// neighbourhood (frame length + a few hundred µs).
	r, err := Run(ulCfg(26, DataParallel))
	if err != nil {
		t.Fatal(err)
	}
	med := r.MedianLatencyUS()
	if med < 1000 || med > 1600 {
		t.Fatalf("median latency %.0f µs, want ~1190 (paper)", med)
	}
	if !r.KeepsUp {
		t.Fatal("26 workers should keep up with 1 ms frames")
	}
}

func TestTooFewWorkersBacklogs(t *testing.T) {
	// Total per-frame work is ~17 ms of compute; 4 workers cannot keep up
	// with a 1 ms frame rate.
	r, err := Run(ulCfg(4, DataParallel))
	if err != nil {
		t.Fatal(err)
	}
	if r.KeepsUp {
		t.Fatal("4 workers should not keep up")
	}
}

func TestSpeedupMonotone(t *testing.T) {
	// Fig. 8: processing time decreases with cores (until frame-rate
	// bound). Single-frame runs isolate pure processing time.
	prev := 1e18
	for _, w := range []int{1, 2, 4, 8, 16, 26} {
		c := ulCfg(w, DataParallel)
		c.Frames = 1
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		l := r.FrameLatencyUS[0]
		if l >= prev {
			t.Fatalf("%d workers: latency %.0f not below %.0f", w, l, prev)
		}
		prev = l
	}
}

func TestDataParallelBeatsPipeline(t *testing.T) {
	// The paper's central claim (Fig. 6): ~30% lower latency than the
	// pipeline-parallel variant at equal worker count.
	dp, err := Run(ulCfg(26, DataParallel))
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Run(ulCfg(26, PipelineParallel))
	if err != nil {
		t.Fatal(err)
	}
	if dp.MedianLatencyUS() >= pp.MedianLatencyUS() {
		t.Fatalf("data-parallel %.0f µs not better than pipeline %.0f µs",
			dp.MedianLatencyUS(), pp.MedianLatencyUS())
	}
}

func TestZFMilestoneGap(t *testing.T) {
	// Fig. 13(b): data-parallel finishes ZF much earlier than pipeline
	// because every worker can take ZF tasks.
	dp, _ := Run(ulCfg(26, DataParallel))
	pp, _ := Run(ulCfg(26, PipelineParallel))
	dpZF := dp.ZFDoneUS - dp.PilotDoneUS
	ppZF := pp.ZFDoneUS - pp.PilotDoneUS
	if dpZF*2 > ppZF {
		t.Fatalf("ZF gap: data %.0f µs vs pipeline %.0f µs, want >=2x", dpZF, ppZF)
	}
}

func TestMilestoneOrdering(t *testing.T) {
	r, err := Run(ulCfg(26, DataParallel))
	if err != nil {
		t.Fatal(err)
	}
	if !(r.QueueDelayUS >= 0 && r.PilotDoneUS > r.QueueDelayUS &&
		r.ZFDoneUS > r.PilotDoneUS && r.DecodeDoneUS > r.ZFDoneUS) {
		t.Fatalf("milestones out of order: %+v", r)
	}
}

func TestMoveAndSyncGrowWithAntennas(t *testing.T) {
	// Fig. 10 (right) / Fig. 11: movement and sync grow with M.
	run := func(m int) *Result {
		c := ulCfg(26, DataParallel)
		c.Frame.Antennas = m
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r16 := run(16)
	r64 := run(64)
	if r64.MoveMS <= r16.MoveMS {
		t.Fatalf("movement did not grow with antennas: %v vs %v", r16.MoveMS, r64.MoveMS)
	}
	if r64.SyncMS <= r16.SyncMS {
		t.Fatalf("sync did not grow with antennas: %v vs %v", r16.SyncMS, r64.SyncMS)
	}
}

func TestMoveGrowsWithWorkers(t *testing.T) {
	// Fig. 10 (left): movement grows slightly with core count.
	run := func(w int) *Result {
		c := ulCfg(w, DataParallel)
		c.Frames = 4
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r26, r6 := run(26), run(6); r26.MoveMS <= r6.MoveMS {
		t.Fatalf("movement did not grow with workers: %v vs %v", r6.MoveMS, r26.MoveMS)
	}
}

func TestDecodeDominatesCompute(t *testing.T) {
	// Table 3: decoding is ~58% of total compute.
	r, err := Run(ulCfg(26, DataParallel))
	if err != nil {
		t.Fatal(err)
	}
	dec := r.BlockComputeMS[queue.TaskDecode]
	if dec < 0.4*r.ComputeMS {
		t.Fatalf("decode %.1f ms of %.1f ms total — should dominate", dec, r.ComputeMS)
	}
}

func TestDownlinkOnly(t *testing.T) {
	f := frame.Default64x16()
	f.Symbols = frame.DownlinkSchedule(1, 13)
	c := Config{
		Frame:   f,
		Workers: 21,
		Frames:  8,
	}
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range r.FrameLatencyUS {
		if l <= 0 {
			t.Fatalf("frame %d latency %v", i, l)
		}
	}
	// Paper Fig. 6(b): downlink latency is below the frame length since
	// MAC input is not gated by packet arrival (only pilots are).
	if med := r.MedianLatencyUS(); med > 1100 {
		t.Fatalf("downlink median %.0f µs exceeds ~frame length", med)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := Run(Config{Workers: 2, Mode: PipelineParallel}); err == nil {
		t.Fatal("pipeline with 2 workers accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Run(ulCfg(13, DataParallel))
	b, _ := Run(ulCfg(13, DataParallel))
	for i := range a.FrameLatencyUS {
		if a.FrameLatencyUS[i] != b.FrameLatencyUS[i] {
			t.Fatal("simulation not deterministic")
		}
	}
}

func BenchmarkSim26Workers(b *testing.B) {
	c := ulCfg(26, DataParallel)
	for i := 0; i < b.N; i++ {
		if _, err := Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWorkConservation(t *testing.T) {
	// Per-block compute/movement totals must sum to the global totals,
	// and total compute must be invariant across worker counts (the
	// same tasks run regardless of parallelism).
	r8, err := Run(ulCfg(8, DataParallel))
	if err != nil {
		t.Fatal(err)
	}
	r26, err := Run(ulCfg(26, DataParallel))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range r26.BlockComputeMS {
		sum += v
	}
	if diff := sum - r26.ComputeMS; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("block compute %v != total %v", sum, r26.ComputeMS)
	}
	if d := r8.ComputeMS - r26.ComputeMS; d > 1e-6 || d < -1e-6 {
		t.Fatalf("compute varies with workers: %v vs %v", r8.ComputeMS, r26.ComputeMS)
	}
}

func TestPaperBudgetShares(t *testing.T) {
	// §6.2.3: movement+sync is ~34% of the 26-core budget (8.9 of 26 ms);
	// the calibrated model must land in that neighbourhood.
	r, err := Run(ulCfg(26, DataParallel))
	if err != nil {
		t.Fatal(err)
	}
	frames := 12.0
	overhead := (r.MoveMS + r.SyncMS) / frames
	total := (r.ComputeMS + r.MoveMS + r.SyncMS) / frames
	share := overhead / total
	if share < 0.15 || share > 0.50 {
		t.Fatalf("movement+sync share %.2f outside paper neighbourhood (~0.34)", share)
	}
}
