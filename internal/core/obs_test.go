package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/fft"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/modulation"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/workload"
)

// uplinkStages are the four uplink pipeline stages the trace must show
// per frame (paper Fig. 7).
var uplinkStages = []queue.TaskType{
	queue.TaskPilotFFT, queue.TaskZF, queue.TaskDemod, queue.TaskDecode,
}

// TestTraceCapturesUplinkPipeline runs frames through a traced engine and
// checks the reconstruction: every frame shows all four uplink stages in
// dependency order, and the Chrome export is valid trace_event JSON.
func TestTraceCapturesUplinkPipeline(t *testing.T) {
	cfg := smallCfg()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 25, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, Options{Workers: 3}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	if !eng.TracingEnabled() {
		t.Fatal("tracing should default on")
	}
	eng.Start()
	rru := ring.Side(0)
	const nFrames = 3
	for f := 0; f < nFrames; f++ {
		if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
			t.Fatal(err)
		}
		select {
		case <-eng.Results():
		case <-time.After(20 * time.Second):
			t.Fatal("timeout")
		}
	}
	eng.Stop()

	tl := eng.Timeline()
	if len(tl.Frames) != nFrames {
		t.Fatalf("timeline has %d frames, want %d", len(tl.Frames), nFrames)
	}
	for _, ft := range tl.Frames {
		got := map[queue.TaskType]obs.StageAgg{}
		for _, s := range ft.Stages {
			got[s.Type] = s
		}
		for _, st := range append([]queue.TaskType{queue.TaskFFT}, uplinkStages...) {
			if _, ok := got[st]; !ok {
				t.Fatalf("frame %d missing stage %v: %+v", ft.Frame, ft.Stages, st)
			}
		}
		// Dependency order: a stage cannot START before its predecessor
		// started, and decode cannot end before demod started.
		if got[queue.TaskZF].Start < got[queue.TaskPilotFFT].Start ||
			got[queue.TaskDemod].Start < got[queue.TaskZF].Start ||
			got[queue.TaskDecode].Start < got[queue.TaskDemod].Start {
			t.Fatalf("frame %d stages out of dependency order: %+v", ft.Frame, ft.Stages)
		}
		// Task counts match the frame geometry.
		if got[queue.TaskDecode].Tasks != cfg.NumUplink()*cfg.Users {
			t.Fatalf("frame %d decode tasks = %d", ft.Frame, got[queue.TaskDecode].Tasks)
		}
		if got[queue.TaskPilotFFT].Tasks != cfg.NumPilots()*cfg.Antennas {
			t.Fatalf("frame %d pilot tasks = %d", ft.Frame, got[queue.TaskPilotFFT].Tasks)
		}
	}
	if len(tl.Workers) == 0 {
		t.Fatal("no worker utilization rows")
	}
	for _, w := range tl.Workers {
		if w.BusyNS <= 0 || w.SpanNS < w.BusyNS {
			t.Fatalf("worker %d utilization inconsistent: %+v", w.Lane, w)
		}
	}

	var buf bytes.Buffer
	if err := eng.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome trace invalid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range evs {
		if ev["ph"] == "X" {
			names[ev["name"].(string)] = true
		}
	}
	for _, st := range uplinkStages {
		if !names[st.String()] {
			t.Fatalf("chrome trace missing %v slices (have %v)", st, names)
		}
	}
	if !names["frame 0"] || !names["frame 2"] {
		t.Fatalf("chrome trace missing frame track slices (have %v)", names)
	}
}

// TestTracingDisabled checks the DisableTracing path: no events, nil-safe
// accessors, but live metrics still populated.
func TestTracingDisabled(t *testing.T) {
	cfg := smallCfg()
	results := runFramesObs(t, cfg, Options{Workers: 2, DisableTracing: true}, 2)
	eng := results.eng
	if eng.TracingEnabled() {
		t.Fatal("tracing should be off")
	}
	if evs := eng.TraceEvents(); len(evs) != 0 {
		t.Fatalf("disabled tracer captured %d events", len(evs))
	}
	if tl := eng.Timeline(); len(tl.Frames) != 0 {
		t.Fatal("disabled tracer produced a timeline")
	}
	var buf bytes.Buffer
	if err := eng.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m.FramesDone.Load() != 2 {
		t.Fatalf("metrics frames = %d, want 2", m.FramesDone.Load())
	}
	if m.Latency.Count() != 2 || m.Latency.Max() <= 0 {
		t.Fatalf("latency histogram not fed: count=%d", m.Latency.Count())
	}
}

// TestMetricsSnapshotLive calls MetricsSnapshot and TaskStats WHILE the
// engine is processing, pinning the mid-run snapshot contract (the old
// TaskStats raced worker accumulators; under -race this test would fail).
func TestMetricsSnapshotLive(t *testing.T) {
	cfg := smallCfg()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 25, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, Options{Workers: 3}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	rru := ring.Side(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // poll the monitoring surface concurrently with the run
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = eng.TaskStats()
				s := eng.MetricsSnapshot()
				if _, err := json.Marshal(s); err != nil {
					t.Errorf("snapshot marshal: %v", err)
					return
				}
			}
		}
	}()
	const nFrames = 5
	for f := 0; f < nFrames; f++ {
		if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
			t.Fatal(err)
		}
		select {
		case <-eng.Results():
		case <-time.After(20 * time.Second):
			t.Fatal("timeout")
		}
	}
	close(stop)
	wg.Wait()
	eng.Stop()
	s := eng.MetricsSnapshot()
	if s.Frames != nFrames {
		t.Fatalf("snapshot frames = %d, want %d", s.Frames, nFrames)
	}
	if s.Tasks[queue.TaskDecode.String()].Count != int64(nFrames*cfg.NumUplink()*cfg.Users) {
		t.Fatalf("decode task count = %+v", s.Tasks[queue.TaskDecode.String()])
	}
	if s.Latency.P999MS <= 0 || s.Latency.MaxMS < s.Latency.P50MS {
		t.Fatalf("latency snapshot inconsistent: %+v", s.Latency)
	}
	// The manager samples queue gauges every 256 loop iterations; after 5
	// frames of busy-polling the high-water marks must have been touched.
	found := false
	for _, g := range s.Queues {
		if g.Max > 0 {
			found = true
		}
	}
	if !found {
		t.Log("no queue gauge recorded a non-zero depth (tiny run; gauges are sampled)")
	}
}

// obsRun bundles an engine kept around after its frames completed.
type obsRun struct {
	eng *Engine
}

// runFramesObs drives n frames to completion and stops the engine.
func runFramesObs(t *testing.T, cfg frame.Config, opts Options, n int) obsRun {
	t.Helper()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 25, 9)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, opts, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	rru := ring.Side(0)
	for f := 0; f < n; f++ {
		if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
			t.Fatal(err)
		}
		select {
		case <-eng.Results():
		case <-time.After(20 * time.Second):
			t.Fatal("timeout")
		}
	}
	eng.Stop()
	return obsRun{eng: eng}
}

// TestKernelsReported checks the engine's kernel table against the three
// packages' Kernel(): the platform's selection on the default path and
// the antenna-major layout, decode "generic" under the flooding ablation,
// and no rows under DummyKernels, which runs none of the three kernels.
func TestKernelsReported(t *testing.T) {
	platform := []obs.KernelRow{
		{Stage: "decode", Kernel: ldpc.Kernel()},
		{Stage: "fft", Kernel: fft.Kernel()},
		{Stage: "demod", Kernel: modulation.Kernel()},
	}
	for _, r := range platform {
		if r.Kernel != "avx2" && r.Kernel != "generic" {
			t.Fatalf("%s: Kernel() = %q, want \"avx2\" or \"generic\"", r.Stage, r.Kernel)
		}
	}
	flooding := slices.Clone(platform)
	flooding[0].Kernel = "generic"
	for _, tc := range []struct {
		name string
		opts Options
		want []obs.KernelRow
	}{
		{"default", Options{Workers: 1}, platform},
		{"DisableMemOpt", Options{Workers: 1, DisableMemOpt: true}, platform},
		{"DisableLayeredDecode", Options{Workers: 1, DisableLayeredDecode: true}, flooding},
		{"DummyKernels", Options{Workers: 1, DummyKernels: true}, nil},
	} {
		eng, err := NewEngine(smallCfg(), tc.opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := eng.MetricsSnapshot().Kernels
		t.Logf("%s: %v", tc.name, got)
		if !slices.Equal(got, tc.want) {
			t.Fatalf("%s: engine reports kernels %v, want %v", tc.name, got, tc.want)
		}
	}
}
