package fleet

import (
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/modulation"
	"repro/internal/workload"
)

func coreOpts(workers int) core.Options { return core.Options{Workers: workers} }

func smallCfg() frame.Config {
	return frame.Config{
		Antennas:        8,
		Users:           2,
		OFDMSize:        256,
		DataSubcarriers: 128,
		Order:           modulation.QPSK,
		Rate:            ldpc.Rate89,
		DecodeIter:      8,
		Pilots:          frame.FreqOrthogonal,
		Symbols:         "PUU",
		ZFGroupSize:     16,
		DemodBlockSize:  32,
		FFTBatch:        2,
		ZFBatch:         3,
	}
}

// newGens builds one workload generator per cell, each stamping its cell
// id and drawing an independent channel/payload from a per-cell seed.
func newGens(t *testing.T, cfg frame.Config, cells int) []*workload.Generator {
	t.Helper()
	gens := make([]*workload.Generator, cells)
	for c := range gens {
		g, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 100+int64(c))
		if err != nil {
			t.Fatal(err)
		}
		g.SetCell(uint8(c))
		gens[c] = g
	}
	return gens
}

// collect drains n results from the fleet, failing on timeout.
func collect(t *testing.T, f *Fleet, n int, timeout time.Duration) []CellResult {
	t.Helper()
	out := make([]CellResult, 0, n)
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case r := <-f.Results():
			out = append(out, r)
		case <-deadline:
			t.Fatalf("collected %d/%d results before timeout", len(out), n)
		}
	}
	return out
}

// TestRouterDemuxInterleaved drives per-cell RRU streams interleaved at
// PACKET granularity through the router and checks every cell decodes
// its own frames cleanly — cross-cell contamination (a packet routed to
// the wrong engine) would corrupt that cell's pilot or data symbols and
// fail parity.
func TestRouterDemuxInterleaved(t *testing.T) {
	const cells, frames = 3, 3
	cfg := smallCfg()
	f, err := New(Config{Cells: cells, Frame: cfg, TotalWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	gens := newGens(t, cfg, cells)

	for fr := 0; fr < frames; fr++ {
		// Buffer each cell's frame, then interleave round-robin.
		perCell := make([][][]byte, cells)
		for c, g := range gens {
			if err := g.EmitFrame(uint32(fr), func(pkt []byte) error {
				cp := make([]byte, len(pkt))
				copy(cp, pkt)
				perCell[c] = append(perCell[c], cp)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < len(perCell[0]); i++ {
			for c := 0; c < cells; c++ {
				if err := f.Route(perCell[c][i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, r := range collect(t, f, cells, 20*time.Second) {
			if r.Dropped {
				t.Fatalf("cell %d frame %d dropped", r.Cell, r.Frame)
			}
			if r.BlocksOK != r.BlocksTotal {
				t.Fatalf("cell %d frame %d: %d/%d blocks (cross-cell contamination?)",
					r.Cell, r.Frame, r.BlocksOK, r.BlocksTotal)
			}
		}
	}
	if f.Shed() != 0 {
		t.Fatalf("healthy fleet shed %d packets", f.Shed())
	}
	snap := f.Snapshot()
	if snap.Cells != cells || snap.Totals.Frames != int64(cells*frames) {
		t.Fatalf("snapshot totals: %+v", snap.Totals)
	}
	if snap.Totals.Latency.Count != int64(cells*frames) {
		t.Fatalf("merged latency count %d", snap.Totals.Latency.Count)
	}
}

// TestRouterMisroute: packets addressed to a nonexistent cell are
// counted and dropped, not delivered to cell 0.
func TestRouterMisroute(t *testing.T) {
	cfg := smallCfg()
	f, err := New(Config{Cells: 1, Frame: cfg, Opts: coreOpts(1)})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	g, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	g.SetCell(9)
	if err := g.EmitFrame(0, f.Route); err != nil {
		t.Fatal(err)
	}
	if f.Shed() == 0 {
		t.Fatal("misrouted packets not counted")
	}
	if got := f.Engine(0).Metrics().FramesDone.Load(); got != 0 {
		t.Fatalf("cell 0 processed %d misrouted frames", got)
	}
}

// TestDrainUnderInFlightFrames: Drain while a frame's packets are only
// half delivered must let that frame finish (its remaining packets still
// flow) while shedding frames that would start afterwards.
func TestDrainUnderInFlightFrames(t *testing.T) {
	cfg := smallCfg()
	f, err := New(Config{Cells: 2, Frame: cfg, TotalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	f.Start()
	gens := newGens(t, cfg, 2)

	// Deliver frame 0 fully to cell 0, and only HALF of frame 0 to
	// cell 1 before draining.
	var cell1Rest [][]byte
	if err := gens[0].EmitFrame(0, f.Route); err != nil {
		t.Fatal(err)
	}
	var n int
	total := cfg.Antennas * len(cfg.Symbols)
	if err := gens[1].EmitFrame(0, func(pkt []byte) error {
		n++
		if n <= total/2 {
			return f.Route(pkt)
		}
		cp := make([]byte, len(pkt))
		copy(cp, pkt)
		cell1Rest = append(cell1Rest, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- f.Drain(15 * time.Second) }()
	// While draining: new frames are shed...
	time.Sleep(10 * time.Millisecond)
	if err := gens[0].EmitFrame(1, f.Route); err != nil {
		t.Fatal(err)
	}
	if f.Shed() == 0 {
		t.Fatal("draining fleet admitted a new frame")
	}
	// ...but the in-flight half-frame may still complete.
	for _, pkt := range cell1Rest {
		if err := f.Route(pkt); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	results := collect(t, f, 2, 20*time.Second)
	for _, r := range results {
		if r.Dropped {
			t.Fatalf("cell %d frame %d dropped during drain", r.Cell, r.Frame)
		}
	}
	if s := f.State(0); s != Draining {
		t.Fatalf("post-drain state %v", s)
	}
	f.Stop()
	if s := f.State(0); s != Stopped {
		t.Fatalf("post-stop state %v", s)
	}
	// Results channel closes after Stop.
	if _, ok := <-f.Results(); ok {
		t.Fatal("results channel still open after Stop")
	}
}

// TestDegradeAndRecover: a cell whose frames all time out degrades after
// the threshold, sheds new frames during cooldown, then recovers on a
// clean probation frame. The other cell keeps processing throughout —
// per-cell degradation must not leak across the fleet.
func TestDegradeAndRecover(t *testing.T) {
	cfg := smallCfg()
	opts := coreOpts(1)
	opts.FrameTimeout = 50 * time.Millisecond
	f, err := New(Config{
		Cells: 2, Frame: cfg, Opts: opts,
		DegradeThreshold: 2,
		DegradeCooldown:  400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	gens := newGens(t, cfg, 2)

	// Starve cell 0: deliver only the first packet of each frame, so the
	// engine admits it and the frame times out -> Dropped result -> bad.
	emitFirstPacketOnly := func(fr uint32) {
		sent := false
		if err := gens[0].EmitFrame(fr, func(pkt []byte) error {
			if sent {
				return nil
			}
			sent = true
			return f.Route(pkt)
		}); err != nil {
			t.Fatal(err)
		}
	}
	emitFirstPacketOnly(0)
	emitFirstPacketOnly(1)
	// Two timeouts at threshold 2 => Degraded.
	waitFor(t, 10*time.Second, func() bool { return f.State(0) == Degraded })

	// During cooldown, cell 0 sheds new frames; cell 1 still processes.
	shedBefore := f.Shed()
	if err := gens[0].EmitFrame(2, f.Route); err != nil {
		t.Fatal(err)
	}
	if f.Shed() <= shedBefore {
		t.Fatal("degraded cell admitted a new frame during cooldown")
	}
	if err := gens[1].EmitFrame(0, f.Route); err != nil {
		t.Fatal(err)
	}
	r := <-f.Results()
	for r.Cell != 1 {
		r = <-f.Results()
	}
	if r.Dropped || r.BlocksOK != r.BlocksTotal {
		t.Fatalf("healthy cell suffered during neighbour degradation: %+v", r.FrameResult)
	}

	// After cooldown, a clean probation frame re-activates cell 0.
	time.Sleep(450 * time.Millisecond)
	if err := gens[0].EmitFrame(3, f.Route); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return f.State(0) == Active })
}

// TestServeRing: the Serve ingress loop pulls from a front transport and
// routes — the cross-process deployment shape (cmd/agora -cells).
func TestServeRing(t *testing.T) {
	const cells = 2
	cfg := smallCfg()
	f, err := New(Config{Cells: cells, Frame: cfg, TotalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	front := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	f.Serve(front.Side(1))
	defer front.Side(0).Close()

	rru := front.Side(0)
	for c, g := range newGens(t, cfg, cells) {
		if err := g.EmitFrame(0, rru.Send); err != nil {
			t.Fatalf("cell %d emit: %v", c, err)
		}
	}
	for _, r := range collect(t, f, cells, 20*time.Second) {
		if r.Dropped || r.BlocksOK != r.BlocksTotal {
			t.Fatalf("cell %d: dropped=%v blocks %d/%d",
				r.Cell, r.Dropped, r.BlocksOK, r.BlocksTotal)
		}
	}
}

// TestConfigValidation pins fleet config errors.
func TestConfigValidation(t *testing.T) {
	cfg := smallCfg()
	if _, err := New(Config{Cells: 0, Frame: cfg}); err == nil {
		t.Fatal("Cells=0 accepted")
	}
	if _, err := New(Config{Cells: 300, Frame: cfg}); err == nil {
		t.Fatal("Cells=300 accepted (Cell is one wire byte)")
	}
	// TotalWorkers smaller than cell count still gives each cell one worker.
	f, err := New(Config{Cells: 2, Frame: cfg, TotalWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	f.Stop()
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached before timeout")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
