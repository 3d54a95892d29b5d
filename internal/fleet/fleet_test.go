package fleet

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/modulation"
	"repro/internal/obs"
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
	// The shed incident is the fleet's own: Snapshot adds it to the
	// cells' incident counts.
	fs := f.Snapshot()
	var cellInc int64
	for _, cs := range fs.PerCell {
		cellInc += cs.Incidents
	}
	if fs.Totals.Incidents != cellInc+1 {
		t.Fatalf("fleet incidents %d, want the cells' %d plus one shed", fs.Totals.Incidents, cellInc)
	}

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

// TestRouterFrameOrder drives the router with header-only packets of
// chosen frame ids and checks its admission against the engine's id
// rule (core.FrameIsNew), applied per buffer slot (id mod 8, the
// default Slots): an id far ahead of its slot is forwarded without
// being counted admitted, a slot that has seen no id takes any, ids
// wrap from 2³²−1 to 0, and a draining or degraded cell sheds exactly
// the ids that would start a frame. The engines are not started;
// forwarded packets wait in the cell's ring.
func TestRouterFrameOrder(t *testing.T) {
	type step struct {
		state CellState // set before the packet; Degraded means inside the cooldown
		frame uint32
	}
	for _, tc := range []struct {
		name           string
		steps          []step
		admitted, shed int64
	}{
		{"far-ahead id is not a new frame", []step{
			{Active, 5}, {Active, 5 + 1<<30}, {Draining, 6}, {Draining, 5},
		}, 1, 1},
		{"far-ahead id into an unclaimed slot", []step{
			{Active, 0}, {Active, 1 + 1<<30}, {Draining, 1},
		}, 2, 0},
		{"the window's edge", []step{
			{Active, 7}, {Active, 7 + 1<<20}, {Active, 7 + 1<<20 - 8},
		}, 2, 0},
		{"reordered frames", []step{
			{Active, 2}, {Active, 4}, {Active, 3}, {Active, 3}, {Active, 0xFFFFFFFC},
		}, 3, 0},
		{"wrap while active", []step{
			{Active, 0xFFFFFFF8}, {Active, 0xFFFFFFFF}, {Active, 0}, {Active, 7},
			{Active, 0xFFFFFFFF},
		}, 4, 0},
		{"wrap through a draining cell", []step{
			{Active, 0xFFFFFFF8}, {Draining, 0xFFFFFFF8}, {Draining, 0}, {Draining, 8},
		}, 1, 2},
		{"degraded cell", []step{
			{Active, 10}, {Degraded, 10}, {Degraded, 18}, {Degraded, 18 + 1<<30},
			{Active, 18}, {Active, 18},
		}, 2, 1},
		{"degraded across the wrap", []step{
			{Active, 0xFFFFFFF8}, {Degraded, 0}, {Degraded, 0xFFFFFFF8},
		}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := New(Config{Cells: 1, Frame: smallCfg(), Opts: coreOpts(1)})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Stop()
			c := f.cells[0]
			pkt := make([]byte, fronthaul.HeaderSize)
			for i, st := range tc.steps {
				c.state.Store(int32(st.state))
				c.degradedUntil.Store(time.Now().Add(time.Hour).UnixNano())
				h := fronthaul.Header{Frame: st.frame, Seq: uint64(i)}
				h.Encode(pkt)
				if err := f.Route(pkt); err != nil {
					t.Fatal(err)
				}
			}
			if a, s := c.admitted.Load(), c.shed.Load(); a != tc.admitted || s != tc.shed {
				t.Fatalf("admitted %d, shed %d; want %d, %d", a, s, tc.admitted, tc.shed)
			}
		})
	}
}

// TestDrainWaitsForFarAheadClaim: on a started engine, a lone packet
// whose id lies far ahead but lands in a slot no frame has claimed yet
// starts a frame — the engine claims the slot and retires the frame
// Dropped at FrameTimeout — so the router counts it admitted, and Drain
// returns only after its result, with finished equal to admitted.
func TestDrainWaitsForFarAheadClaim(t *testing.T) {
	cfg := smallCfg()
	opts := coreOpts(1)
	opts.FrameTimeout = 100 * time.Millisecond
	f, err := New(Config{Cells: 1, Frame: cfg, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	g := newGens(t, cfg, 1)[0]
	if err := g.EmitFrame(0, f.Route); err != nil {
		t.Fatal(err)
	}
	const far = 1 + 1<<30 // slot 1 of 8, which no frame has claimed
	sent := false
	if err := g.EmitFrame(far, func(pkt []byte) error {
		if sent {
			return nil
		}
		sent = true
		return f.Route(pkt)
	}); err != nil {
		t.Fatal(err)
	}
	c := f.cells[0]
	if a := c.admitted.Load(); a != 2 {
		t.Fatalf("admitted %d, want frame 0 and the far-ahead claim", a)
	}
	if err := f.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fin, a := c.finished.Load(), c.admitted.Load(); fin != a {
		t.Fatalf("finished %d, admitted %d after Drain", fin, a)
	}
	for _, r := range collect(t, f, 2, time.Second) {
		if r.Dropped != (r.Frame == far) {
			t.Fatalf("frame %d dropped=%v", r.Frame, r.Dropped)
		}
	}
}

// TestSnapshotMergesCellHists: after frames on two cells, the fleet's
// latency summary and SLO rows equal those of one obs.Metrics fed every
// result the fleet delivered — the cells' histograms merge exactly.
func TestSnapshotMergesCellHists(t *testing.T) {
	const cells, frames = 2, 6
	cfg := smallCfg()
	f, err := New(Config{Cells: cells, Frame: cfg, TotalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	var union obs.Metrics
	union.FrameBudgetNS.Store(f.Engine(0).Metrics().FrameBudgetNS.Load())
	gens := newGens(t, cfg, cells)
	for fr := 0; fr < frames; fr++ {
		for _, g := range gens {
			if err := g.EmitFrame(uint32(fr), f.Route); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range collect(t, f, cells, 20*time.Second) {
			if r.Dropped {
				t.Fatalf("cell %d frame %d dropped", r.Cell, r.Frame)
			}
			union.ObserveFrame(int64(r.Latency))
			union.ObserveStages(&r.Rec)
		}
	}
	fs := f.Snapshot()
	want := union.Snap()
	if fs.Totals.Latency != want.Latency || want.Latency.Count != cells*frames {
		t.Fatalf("fleet latency %+v, union of results %+v", fs.Totals.Latency, want.Latency)
	}
	if !reflect.DeepEqual(fs.Totals.SLO, want.SLO) || len(want.SLO) == 0 {
		t.Fatalf("fleet SLO rows %+v, union of results %+v", fs.Totals.SLO, want.SLO)
	}
}

// TestSlowConsumer: a consumer that reads nothing while the cells
// retire more frames than Results holds stalls no manager — every cell
// keeps retiring, the reports that find the channel full are counted
// in the cells' ResultsLost — and Drain and Stop still end, with
// Results closed once after the buffered reports.
func TestSlowConsumer(t *testing.T) {
	const cells = 2
	cfg := smallCfg()
	f, err := New(Config{Cells: cells, Frame: cfg, TotalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()
	gens := newGens(t, cfg, cells)
	room := cap(f.Results())
	perCell := room/cells + 4
	retired := func(i int) int64 {
		m := f.Engine(i).Metrics()
		return m.FramesDone.Load() + m.FramesDropped.Load()
	}
	for fr := 0; fr < perCell; fr++ {
		for _, g := range gens {
			if err := g.EmitFrame(uint32(fr), f.Route); err != nil {
				t.Fatal(err)
			}
		}
		// One frame in flight per cell keeps every frame in its slot; a
		// manager blocked on the full stream stops the count here.
		deadline := time.Now().Add(10 * time.Second)
		for c := 0; c < cells; c++ {
			for retired(c) != int64(fr+1) {
				if time.Now().After(deadline) {
					t.Fatalf("frame %d: cell %d retired %d frames", fr, c, retired(c))
				}
				runtime.Gosched()
			}
		}
	}
	if err := f.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var lost int64
	for i := 0; i < cells; i++ {
		lost += f.Engine(i).Metrics().ResultsLost.Load()
	}
	if want := int64(cells*perCell - room); lost != want || len(f.Results()) != room {
		t.Fatalf("%d reports lost with %d buffered, want %d and %d", lost, len(f.Results()), want, room)
	}
	f.Stop()
	f.Stop()
	n := 0
	for range f.Results() {
		n++
	}
	if n != room {
		t.Fatalf("read %d buffered reports after Stop, want %d", n, room)
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
