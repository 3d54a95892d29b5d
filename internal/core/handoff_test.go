package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/workload"
)

// TestCountdownWord pins the countdown word's rules: only a completion of
// the frame it is armed for moves it, it never goes below 0, and only the
// call that takes it to 0 reports so.
func TestCountdownWord(t *testing.T) {
	for _, f := range []uint32{100, 3, math.MaxUint32} {
		var c countdown
		c.arm(f, 12)
		armed := c.w.Load()
		if c.done(f-8, 1) || c.w.Load() != armed {
			t.Fatalf("frame %d: a completion of frame f-8 moved the word %#x -> %#x", f, armed, c.w.Load())
		}
		if c.done(f, 5) || c.done(f, 2) {
			t.Fatalf("frame %d: reported 0 with tasks left", f)
		}
		if !c.done(f, 5) {
			t.Fatalf("frame %d: the last completion did not report 0", f)
		}
		for range 3 {
			if c.done(f, 1) {
				t.Fatalf("frame %d: a completion past 0 reported 0 again", f)
			}
		}
		if c.w.Load() != uint64(f)<<32 {
			t.Fatalf("frame %d: word %#x after the countdown, want %#x", f, c.w.Load(), uint64(f)<<32)
		}
		c.arm(f, 3)
		if !c.done(f, 5) || c.w.Load() != uint64(f)<<32 {
			t.Fatalf("frame %d: a batch past the count left word %#x", f, c.w.Load())
		}
	}
}

// TestCountdownConcurrent decrements one word from several goroutines in
// batches of 1 and 2 that add up to its count: exactly one call sees 0,
// and the word ends at 0 for its frame.
func TestCountdownConcurrent(t *testing.T) {
	const (
		goroutines = 4
		calls      = 2000 // per goroutine, alternating batches of 1 and 2
		frameID    = 77
	)
	for round := 0; round < 20; round++ {
		var c countdown
		c.arm(frameID, goroutines*calls/2*3)
		var zeros atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					if c.done(frameID, 1+i%2) {
						zeros.Add(1)
					}
					if c.done(frameID-8, 1) {
						zeros.Add(100)
					}
				}
			}()
		}
		wg.Wait()
		if n := zeros.Load(); n != 1 {
			t.Fatalf("round %d: %d callers saw 0, want exactly 1", round, n)
		}
		if c.w.Load() != frameID<<32 {
			t.Fatalf("round %d: word %#x, want %#x", round, c.w.Load(), uint64(frameID)<<32)
		}
	}
}

// handoffCell is an 8×2 uplink cell with six data symbols.
func handoffCell() frame.Config {
	cfg := smallCfg()
	cfg.Symbols = "PUUUUUU"
	return cfg
}

// TestHandoffCount runs clean frames, one at a time, with GOMAXPROCS
// pinned: with as many workers as processors each frame hands the
// manager a processor exactly once per task type it runs (5 on an uplink
// frame, 6 on the downlink cell's), and with a processor to spare never.
func TestHandoffCount(t *testing.T) {
	for _, tc := range []struct {
		name           string
		cfg            frame.Config
		workers, procs int
		perFrame       int64
	}{
		{"uplink", handoffCell(), 2, 2, 5},
		{"downlink", downlinkCfg(), 2, 2, 6},
		{"uplink-spare", handoffCell(), 1, 2, 0},
		{"downlink-spare", downlinkCfg(), 1, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const frames = 6
			prev := runtime.GOMAXPROCS(tc.procs)
			defer runtime.GOMAXPROCS(prev)
			got := handoffRun(t, tc.cfg, Options{Workers: tc.workers}, frames)
			if want := tc.perFrame * frames; got != want {
				t.Fatalf("%d handoffs over %d frames, want %d", got, frames, want)
			}
		})
	}
}

// handoffRun sends n frames through a fresh engine one at a time, fails
// on a Dropped one, and returns the handoffs counted once the engine
// stopped.
func handoffRun(t *testing.T, cfg frame.Config, opts Options, n int) int64 {
	t.Helper()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, opts, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	rru := ring.Side(0)
	go func() { // downlink packets: the RRU's receiver
		for pkt, ok := rru.Recv(); ok; pkt, ok = rru.Recv() {
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
				t.Fatalf("frame %d dropped", f)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("frame %d timed out", f)
		}
	}
	eng.Stop()
	if s := eng.MetricsSnapshot(); s.Manager.Handoffs != eng.met.Handoffs.Load() {
		t.Fatalf("snapshot handoffs %d, metric %d", s.Manager.Handoffs, eng.met.Handoffs.Load())
	}
	return eng.met.Handoffs.Load()
}
