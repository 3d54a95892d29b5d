package core

// Zero-copy RX and fronthaul FEC behaviour (DESIGN §15): payloads leased
// in place on transport buffers must be observationally identical to
// payloads copied into pool buffers, and Reed-Solomon parity must
// reconstruct lost packets bit-exactly — frames complete despite loss up
// to the parity budget and degrade to Dropped beyond it.

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/fronthaul"
	"repro/internal/workload"
)

// TestZeroCopyRXBitIdentity pins the transport-lease path against
// InjectPacket, which copies each payload into an engine-pool buffer
// before leasing it: same traffic, byte-identical decoded bits. Any
// lease-lifecycle bug — a transport buffer released early, a stale lease
// served to the wrong frame — shows up as a diff.
func TestZeroCopyRXBitIdentity(t *testing.T) {
	const frames = 6
	leased, _, _ := runBitFrames(t, Options{Workers: 3}, frames, 0)
	cfg := smallCfg()
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, Options{Workers: 3, KeepBits: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	injected := make([]FrameResult, 0, frames)
	for f := 0; f < frames; f++ {
		if err := gen.EmitFrame(uint32(f), eng.InjectPacket); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-eng.Results():
			injected = append(injected, r)
		case <-time.After(20 * time.Second):
			t.Fatalf("frame %d timed out", f)
		}
	}
	sameBits(t, leased, injected)
}

// runBitFramesLoss is runBitFrames over a lossy link: parity enables
// FEC on both generator and engine, and drop discards matching packets
// before they reach the ring. Dropped frames are returned in place (the
// caller inspects the Dropped flag). Also returns the engine's
// FECRecovered counter.
func runBitFramesLoss(t *testing.T, opts Options, n, parity int,
	drop func(fronthaul.Header) bool) ([]FrameResult, int64) {
	t.Helper()
	cfg := smallCfg()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.SetFECParity(parity); err != nil {
		t.Fatal(err)
	}
	opts.KeepBits = true
	opts.FECParity = parity
	eng, err := NewEngine(cfg, opts, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	send := func(pkt []byte) error {
		if drop != nil {
			var h fronthaul.Header
			if err := h.Decode(pkt); err == nil && drop(h) {
				return nil
			}
		}
		return rru.Send(pkt)
	}
	results := make([]FrameResult, 0, n)
	for f := 0; f < n; f++ {
		if err := gen.EmitFrame(uint32(f), send); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-eng.Results():
			results = append(results, r)
		case <-time.After(20 * time.Second):
			t.Fatalf("frame %d timed out", f)
		}
	}
	return results, eng.Metrics().FECRecovered.Load()
}

// TestFECRecoversLostPackets drops exactly P data packets from every
// symbol burst and checks that with FECParity = P every frame still
// completes with bits byte-identical to a lossless, FEC-free run —
// Reed-Solomon reconstruction is exact, so the loss must be invisible.
func TestFECRecoversLostPackets(t *testing.T) {
	const (
		frames = 4
		parity = 2
	)
	cfg := smallCfg()
	drop := func(h fronthaul.Header) bool {
		// Lose antennas 2 and 5 of every burst; parity (>= M) passes.
		return int(h.Antenna) < cfg.Antennas && (h.Antenna == 2 || h.Antenna == 5)
	}
	baseline, _, _ := runBitFrames(t, Options{Workers: 3}, frames, 0)
	res, recovered := runBitFramesLoss(t, Options{Workers: 3}, frames, parity, drop)
	for f, r := range res {
		if r.Dropped {
			t.Fatalf("frame %d dropped despite parity budget", f)
		}
	}
	// 2 recoveries per data-carrying symbol, 3 such symbols per frame.
	if want := int64(frames * 3 * parity); recovered != want {
		t.Fatalf("FECRecovered = %d, want %d", recovered, want)
	}
	sameBits(t, baseline, res)
}

// TestFECBudgetExceeded loses parity+1 packets of one frame's pilot
// burst: reconstruction is impossible, so that frame must surface as
// Dropped at the frame timeout while every later frame completes.
func TestFECBudgetExceeded(t *testing.T) {
	const (
		frames = 3
		parity = 2
	)
	cfg := smallCfg()
	drop := func(h fronthaul.Header) bool {
		return h.Frame == 0 && h.Symbol == 0 &&
			int(h.Antenna) < cfg.Antennas && h.Antenna < parity+1
	}
	res, recovered := runBitFramesLoss(t,
		Options{Workers: 3, FrameTimeout: 300 * time.Millisecond},
		frames, parity, drop)
	if !res[0].Dropped {
		t.Fatalf("frame 0 lost %d > %d packets but was not dropped", parity+1, parity)
	}
	for f := 1; f < frames; f++ {
		if res[f].Dropped {
			t.Fatalf("clean frame %d dropped", f)
		}
		if res[f].BlocksOK != res[f].BlocksTotal {
			t.Fatalf("clean frame %d: %d/%d blocks", f, res[f].BlocksOK, res[f].BlocksTotal)
		}
	}
	if recovered != 0 {
		t.Fatalf("FECRecovered = %d for an unrecoverable burst", recovered)
	}
}

// TestSeqGapAccounting checks the sequence-number loss counters: the
// generator stamps monotone Seq, so every injected drop must surface
// as exactly one gap.
func TestSeqGapAccounting(t *testing.T) {
	cfg := smallCfg()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.SetFECParity(2); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, Options{Workers: 3, FECParity: 2}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	dropped := 0
	send := func(pkt []byte) error {
		var h fronthaul.Header
		if err := h.Decode(pkt); err == nil &&
			int(h.Antenna) < cfg.Antennas && h.Antenna == 3 {
			dropped++
			return nil
		}
		return rru.Send(pkt)
	}
	const frames = 4
	for f := 0; f < frames; f++ {
		if err := gen.EmitFrame(uint32(f), send); err != nil {
			t.Fatal(err)
		}
		select {
		case <-eng.Results():
		case <-time.After(20 * time.Second):
			t.Fatalf("frame %d timed out", f)
		}
	}
	if got := eng.Metrics().SeqGaps.Load(); got != int64(dropped) {
		t.Fatalf("SeqGaps = %d, want %d (one per injected drop)", got, dropped)
	}
}

// TestResendUntilResult runs an engine on a Ring one frame at a time
// while the RRU side resends the frame's packets until its result
// arrives, so duplicates keep reaching netRX while the manager retires
// the frame. A genuine packet is sent again only if the ring dropped it,
// so every frame is delivered whole: each must come back decoded. A
// duplicate that passes the owner check just before its frame retires
// must not mark an arrival in the slot's next frame (DESIGN §15).
func TestResendUntilResult(t *testing.T) {
	const slots = 4
	frames := 400
	if testing.Short() {
		frames = 120
	}
	cfg := smallCfg()
	ring := fronthaul.NewRing(256, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	eng, err := NewEngine(cfg, Options{Workers: 2, Slots: slots, FrameTimeout: 250 * time.Millisecond},
		ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	rru := ring.Side(0)
	var pkts [][]byte
	send := func(p []byte) error {
		pkts = append(pkts, slices.Clone(p))
		for {
			drops := rru.Stats().TxDrops
			if err := rru.Send(p); err != nil || rru.Stats().TxDrops == drops {
				return err
			}
			runtime.Gosched()
		}
	}
	dropped := 0
	for f := 0; f < frames; f++ {
		pkts = pkts[:0]
		if err := gen.EmitFrame(uint32(f), send); err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			var r FrameResult
			select {
			case r = <-eng.Results():
			default:
				_ = rru.Send(pkts[i%len(pkts)])
				runtime.Gosched()
				continue
			}
			if r.Frame != uint32(f) {
				t.Fatalf("frame %d: got a result for frame %d", f, r.Frame)
			}
			if r.Dropped {
				dropped++
			} else if r.BlocksOK != r.BlocksTotal {
				t.Fatalf("frame %d: %d/%d blocks decoded", f, r.BlocksOK, r.BlocksTotal)
			}
			break
		}
	}
	if dropped > 0 {
		t.Fatalf("%d of %d frames Dropped", dropped, frames)
	}
}

// BenchmarkIngest measures the packet-accept hot path in isolation: header
// parse, slot claim, dedupe, payload hand-off. The engine is never
// started — the bench drives acceptPacket directly and unwinds the slot
// state each iteration, so the number is pure ingest cost. The cell
// uses the paper's 2048-point numerology (~6.6 KB payloads): that is
// the regime the lease path targets — the saved memcpy dwarfs the
// lease-protocol atomics, which at toy payload sizes it does not.
func BenchmarkIngest(b *testing.B) {
	cfg := smallCfg()
	cfg.OFDMSize = 2048
	cfg.DataSubcarriers = 1200
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	eng, err := NewEngine(cfg, Options{Workers: 1}, ring.Side(1))
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 11)
	if err != nil {
		b.Fatal(err)
	}
	var pkts [][]byte
	if err := gen.EmitFrame(0, func(pkt []byte) error {
		pkts = append(pkts, append([]byte(nil), pkt...))
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pkts {
			if _, err := eng.acceptPacket(p, true); err != nil {
				b.Fatal(err)
			}
		}
		for {
			if _, ok := eng.rxQ.TryDequeue(); !ok {
				break
			}
		}
		eng.reclaimLeases(0)
		eng.slotOwner[0].Store(0)
		eng.rxSlots[0].hasNewest = false // frame 0 may claim slot 0 afresh
	}
	b.StopTimer()
	b.ReportMetric(float64(len(pkts)*b.N)/b.Elapsed().Seconds(), "pkts/s")
}
