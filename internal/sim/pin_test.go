package sim

import (
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/modulation"
	"repro/internal/queue"
	"repro/internal/workload"
)

// cell16x4 is the repository benchmark's reference geometry.
func cell16x4(order modulation.Order, rate ldpc.Rate, symbols string) frame.Config {
	return frame.Config{
		Antennas: 16, Users: 4, OFDMSize: 512, DataSubcarriers: 304,
		Order: order, Rate: rate, DecodeIter: 5, Pilots: frame.FreqOrthogonal,
		Symbols: symbols, ZFGroupSize: 16, DemodBlockSize: 64, FFTBatch: 2, ZFBatch: 3,
	}
}

// cell8x2 is the small 256-point cell of the benchmark's small_frames
// workload and of core's TestTaskAccountingExact.
func cell8x2(symbols string) frame.Config {
	return frame.Config{
		Antennas: 8, Users: 2, OFDMSize: 256, DataSubcarriers: 128,
		Order: modulation.QPSK, Rate: ldpc.Rate89, DecodeIter: 8, Pilots: frame.FreqOrthogonal,
		Symbols: symbols, ZFGroupSize: 16, DemodBlockSize: 32, FFTBatch: 2, ZFBatch: 3,
	}
}

// TestSimTasksMatchEngine pins the simulator to the engine: on the
// benchmark geometries and the PUUD cell, with batching on and off, the
// tasks per type per frame that sim.Run schedules equal what a real
// core.Engine executes (Engine.TaskStats, the counts the benchmark
// reports as core.tasks_per_frame.*), exactly.
func TestSimTasksMatchEngine(t *testing.T) {
	wide := cell16x4(modulation.QPSK, ldpc.Rate89, frame.UplinkSchedule(1, 6))
	wide.Antennas = 64
	cells := []struct {
		name string
		cfg  frame.Config
	}{
		{"16x4-P6U-64QAM-R1/3", cell16x4(modulation.QAM64, ldpc.Rate13, frame.UplinkSchedule(1, 6))},
		{"64x4-P6U-QPSK-R8/9", wide},
		{"8x2-PUU-256pt", cell8x2("PUU")},
		{"16x4-P6D", cell16x4(modulation.QAM16, ldpc.Rate23, frame.DownlinkSchedule(1, 6))},
		{"8x2-PUUD", cell8x2("PUUD")},
	}
	const frames = 2
	for _, c := range cells {
		for _, batching := range []bool{true, false} {
			eng := engineTasks(t, c.cfg, core.Options{Workers: 2, DisableBatching: !batching}, frames)
			simCfg := c.cfg
			if !batching {
				simCfg = simCfg.Unbatched()
			}
			r, err := Run(Config{Frame: simCfg, Workers: 2, Frames: frames})
			if err != nil {
				t.Fatal(err)
			}
			for tt := queue.TaskType(0); tt < queue.TaskPacketRX; tt++ {
				if got, want := r.Tasks[tt], eng[tt].Count; got != want {
					t.Errorf("%s batching=%v: %v sim %d tasks over %d frames, engine %d",
						c.name, batching, tt, got, frames, want)
				}
			}
		}
	}
}

// engineTasks runs n frames of cfg through a real engine and returns its
// per-type task counts.
func engineTasks(t *testing.T, cfg frame.Config, opts core.Options, n int) map[queue.TaskType]core.TaskStat {
	t.Helper()
	ring := fronthaul.NewRing(8192, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(cfg, opts, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	rru := ring.Side(0)
	go func() { // drain downlink packets so the ring never fills
		for {
			pkt, ok := rru.Recv()
			if !ok {
				return
			}
			rru.Release(pkt)
		}
	}()
	for f := 0; f < n; f++ {
		if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-eng.Results():
			if r.Dropped {
				t.Fatalf("%v: frame %d dropped", cfg.String(), r.Frame)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%v: frame %d timed out", cfg.String(), f)
		}
	}
	eng.Stop()
	return eng.TaskStats()
}
