package core

import (
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/modulation"
	"repro/internal/queue"
	"repro/internal/workload"
)

// smallCfg is a compact configuration that keeps tests fast: 8×2 MIMO,
// 256-point FFT with 128 data subcarriers, QPSK, high-rate LDPC.
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

// runFrames pushes n frames from a fresh generator through an engine with
// the given options and returns results in frame order, plus the
// generator (for ground truth of the LAST frame only, since EmitFrame
// rerandomizes).
func runFrames(t *testing.T, cfg frame.Config, opts Options, n int, snrDB float64) []FrameResult {
	t.Helper()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, snrDB, 42)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, opts, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	results := make([]FrameResult, 0, n)
	// Keep at most a few frames in flight: buffer slots are finite, and a
	// real RRU paces frames at the frame rate anyway.
	inflight := make(chan struct{}, 3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(results) < n {
			select {
			case r, ok := <-eng.Results():
				if !ok {
					return
				}
				results = append(results, r)
				<-inflight
			case <-time.After(30 * time.Second):
				return
			}
		}
	}()
	for f := 0; f < n; f++ {
		inflight <- struct{}{}
		if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if len(results) != n {
		t.Fatalf("got %d results, want %d (drops=%d)", len(results), n, eng.Drops())
	}
	return results
}

func TestUplinkRecoversExactBits(t *testing.T) {
	cfg := smallCfg()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, Options{Workers: 3, KeepBits: true}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	// One frame at a time so generator truth matches.
	for f := 0; f < 3; f++ {
		if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
			t.Fatal(err)
		}
		var res FrameResult
		select {
		case res = <-eng.Results():
		case <-time.After(20 * time.Second):
			t.Fatalf("frame %d timed out", f)
		}
		if res.Dropped {
			t.Fatalf("frame %d dropped", f)
		}
		if res.BlocksOK != res.BlocksTotal {
			t.Fatalf("frame %d: %d/%d blocks decoded", f, res.BlocksOK, res.BlocksTotal)
		}
		decoded := make([][][]byte, cfg.NumSymbols())
		for s := range decoded {
			if res.Bits[s] != nil {
				decoded[s] = res.Bits[s]
			}
		}
		// Rearrange: CompareUplink wants [user][symbol].
		byUser := make([][][]byte, cfg.Users)
		for u := 0; u < cfg.Users; u++ {
			byUser[u] = make([][]byte, cfg.NumSymbols())
			for s := 0; s < cfg.NumSymbols(); s++ {
				if res.Bits[s] != nil {
					byUser[u][s] = res.Bits[s][u]
				}
			}
		}
		bitErrs, bits, blockErrs, blocks := gen.CompareUplink(byUser)
		if bits == 0 || blocks == 0 {
			t.Fatal("no bits compared")
		}
		if bitErrs != 0 || blockErrs != 0 {
			t.Fatalf("frame %d: %d/%d bit errors, %d/%d block errors at 30 dB",
				f, bitErrs, bits, blockErrs, blocks)
		}
	}
}

func TestMilestoneOrdering(t *testing.T) {
	res := runFrames(t, smallCfg(), Options{Workers: 3}, 3, 25)
	for _, r := range res {
		if r.Dropped {
			t.Fatal("unexpected drop")
		}
		if r.FirstPkt.After(r.Start) {
			t.Fatal("start before first packet")
		}
		if r.PilotDone.Before(r.Start) || r.ZFDone.Before(r.PilotDone) ||
			r.DecodeDone.Before(r.ZFDone) {
			t.Fatalf("milestones out of order: %+v", r)
		}
		if r.Latency <= 0 {
			t.Fatalf("non-positive latency %v", r.Latency)
		}
	}
}

func TestBackToBackFramesAllComplete(t *testing.T) {
	res := runFrames(t, smallCfg(), Options{Workers: 4, Slots: 8}, 12, 25)
	seen := map[uint32]bool{}
	for _, r := range res {
		if r.Dropped {
			t.Fatalf("frame %d dropped", r.Frame)
		}
		if seen[r.Frame] {
			t.Fatalf("frame %d reported twice", r.Frame)
		}
		seen[r.Frame] = true
		if r.BlocksOK != r.BlocksTotal {
			t.Fatalf("frame %d: %d/%d blocks", r.Frame, r.BlocksOK, r.BlocksTotal)
		}
	}
}

func TestPipelineParallelMode(t *testing.T) {
	res := runFrames(t, smallCfg(), Options{Workers: 5, Mode: PipelineParallel}, 4, 25)
	for _, r := range res {
		if r.Dropped || r.BlocksOK != r.BlocksTotal {
			t.Fatalf("pipeline mode frame %d: dropped=%v blocks %d/%d",
				r.Frame, r.Dropped, r.BlocksOK, r.BlocksTotal)
		}
	}
}

func TestAblationsStillCorrect(t *testing.T) {
	cases := map[string]Options{
		"no-batching":    {Workers: 3, DisableBatching: true},
		"no-memopt":      {Workers: 3, DisableMemOpt: true},
		"no-directstore": {Workers: 3, DisableDirectStore: true},
		"no-inverseopt":  {Workers: 3, DisableInverseOpt: true},
		"no-jitgemm":     {Workers: 3, DisableJITGemm: true},
		"no-simdconvert": {Workers: 3, DisableSIMDConvert: true},
		"all-off": {Workers: 3, DisableBatching: true, DisableMemOpt: true,
			DisableDirectStore: true, DisableInverseOpt: true,
			DisableJITGemm: true, DisableSIMDConvert: true},
	}
	for name, opts := range cases {
		opts := opts
		t.Run(name, func(t *testing.T) {
			res := runFrames(t, smallCfg(), opts, 2, 28)
			for _, r := range res {
				if r.Dropped || r.BlocksOK != r.BlocksTotal {
					t.Fatalf("%s: frame %d dropped=%v blocks %d/%d",
						name, r.Frame, r.Dropped, r.BlocksOK, r.BlocksTotal)
				}
			}
		})
	}
}

func TestDummyKernelsComplete(t *testing.T) {
	res := runFrames(t, smallCfg(), Options{Workers: 3, DummyKernels: true}, 3, 25)
	for _, r := range res {
		if r.Dropped {
			t.Fatal("dummy-kernel frame dropped")
		}
	}
}

func TestDownlinkProducesPackets(t *testing.T) {
	cfg := smallCfg()
	cfg.Symbols = "PDD"
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 28, 9)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, Options{Workers: 3}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	// Collect downlink packets at the RRU side.
	type pktInfo struct{ sym, ant int }
	pkts := make(chan pktInfo, 256)
	go func() {
		for {
			pkt, ok := rru.Recv()
			if !ok {
				close(pkts)
				return
			}
			var h fronthaul.Header
			if err := h.Decode(pkt); err == nil && h.Dir == fronthaul.DirDownlink {
				pkts <- pktInfo{int(h.Symbol), int(h.Antenna)}
			}
			rru.Release(pkt)
		}
	}()
	if err := gen.EmitFrame(0, rru.Send); err != nil {
		t.Fatal(err)
	}
	var res FrameResult
	select {
	case res = <-eng.Results():
	case <-time.After(20 * time.Second):
		t.Fatal("downlink frame timed out")
	}
	if res.Dropped {
		t.Fatal("downlink frame dropped")
	}
	if res.TXDone.IsZero() || res.Latency <= 0 {
		t.Fatalf("bad TX milestones: %+v", res)
	}
	// Expect one packet per antenna per DL symbol.
	want := cfg.Antennas * cfg.NumDownlink()
	got := map[pktInfo]bool{}
	deadline := time.After(10 * time.Second)
	for len(got) < want {
		select {
		case p, ok := <-pkts:
			if !ok {
				t.Fatalf("ring closed with %d/%d packets", len(got), want)
			}
			got[p] = true
		case <-deadline:
			t.Fatalf("timeout: %d/%d DL packets", len(got), want)
		}
	}
}

func TestPacketLossReapsFrame(t *testing.T) {
	cfg := smallCfg()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 25, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, Options{Workers: 3, FrameTimeout: 300 * time.Millisecond}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	// Drop every packet of antenna 3 in frame 0.
	count := 0
	err = gen.EmitFrame(0, func(pkt []byte) error {
		var h fronthaul.Header
		_ = h.Decode(pkt)
		count++
		if h.Antenna == 3 {
			return nil // drop
		}
		return rru.Send(pkt)
	})
	if err != nil {
		t.Fatal(err)
	}
	var res FrameResult
	select {
	case res = <-eng.Results():
	case <-time.After(20 * time.Second):
		t.Fatal("lossy frame never reaped")
	}
	if !res.Dropped {
		t.Fatalf("expected dropped result, got %+v", res)
	}
	// Engine must still process the next frame cleanly.
	if err := gen.EmitFrame(1, rru.Send); err != nil {
		t.Fatal(err)
	}
	select {
	case res = <-eng.Results():
		if res.Dropped || res.BlocksOK != res.BlocksTotal {
			t.Fatalf("post-loss frame bad: %+v", res)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("post-loss frame timed out")
	}
}

func TestBadPacketsRejected(t *testing.T) {
	cfg := smallCfg()
	eng, err := NewEngine(cfg, Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InjectPacket(make([]byte, 10)); err == nil {
		t.Fatal("short packet accepted")
	}
	// Out-of-range antenna.
	h := fronthaul.Header{Frame: 0, Symbol: 0, Antenna: 200, Samples: 0}
	pkt := make([]byte, fronthaul.HeaderSize)
	h.Encode(pkt)
	if err := eng.InjectPacket(pkt); err == nil {
		t.Fatal("out-of-range antenna accepted")
	}
	// RX for a downlink-typed symbol index is invalid in "PUU" if marked D.
	h = fronthaul.Header{Frame: 0, Symbol: 99, Antenna: 0}
	h.Encode(pkt)
	if err := eng.InjectPacket(pkt); err == nil {
		t.Fatal("out-of-range symbol accepted")
	}
}

func TestTaskStatsPopulated(t *testing.T) {
	cfg := smallCfg()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 25, 13)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, Options{Workers: 3}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	rru := ring.Side(0)
	for f := 0; f < 2; f++ {
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
	st := eng.TaskStats()
	for _, tt := range []queue.TaskType{queue.TaskPilotFFT, queue.TaskZF,
		queue.TaskFFT, queue.TaskDemod, queue.TaskDecode} {
		s, ok := st[tt]
		if !ok || s.Count == 0 || s.MeanUS <= 0 {
			t.Errorf("no stats for %v: %+v", tt, s)
		}
	}
	// Sanity: per-frame task counts. 2 frames: pilot 8*2, zf 8*2, fft 2sym*8ant*2 ...
	if st[queue.TaskZF].Count != 2*cfg.ZFGroups() {
		t.Errorf("ZF count %d, want %d", st[queue.TaskZF].Count, 2*cfg.ZFGroups())
	}
	if st[queue.TaskDecode].Count != 2*cfg.NumUplink()*cfg.Users {
		t.Errorf("decode count %d", st[queue.TaskDecode].Count)
	}
}

func TestOptionsValidate(t *testing.T) {
	if _, err := NewEngine(smallCfg(), Options{Workers: 2, Mode: PipelineParallel}, nil); err == nil {
		t.Fatal("pipeline mode with 2 workers accepted")
	}
	if DataParallel.String() == PipelineParallel.String() {
		t.Fatal("mode strings")
	}
}

func TestBuildPollOrdersPipelineCoversBlocks(t *testing.T) {
	cfg := smallCfg()
	eng, err := NewEngine(cfg, Options{Workers: 6, Mode: PipelineParallel}, nil)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[queue.TaskType]bool{}
	for _, po := range eng.dag.Polls() {
		if len(po) == 0 {
			t.Fatal("worker with no assignment")
		}
		for _, tt := range po {
			covered[tt] = true
		}
	}
	for _, tt := range []queue.TaskType{queue.TaskPilotFFT, queue.TaskZF,
		queue.TaskFFT, queue.TaskDemod, queue.TaskDecode} {
		if !covered[tt] {
			t.Errorf("block %v has no workers", tt)
		}
	}
}
