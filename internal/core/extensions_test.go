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

func TestMRCEqualizerDecodesSingleStream(t *testing.T) {
	// MRC is interference-limited with many users but exact for one
	// stream: a K=1 run must decode perfectly.
	cfg := smallCfg()
	cfg.Users = 1
	res := runFrames(t, cfg, Options{Workers: 3, UseMRC: true}, 3, 28)
	for _, r := range res {
		if r.Dropped || r.BlocksOK != r.BlocksTotal {
			t.Fatalf("MRC K=1 frame %d: %d/%d", r.Frame, r.BlocksOK, r.BlocksTotal)
		}
	}
}

func TestMRCWorseThanZFWithManyUsers(t *testing.T) {
	// With M/K = 2 the MRC signal-to-interference ratio is only ~4 dB,
	// below what the rate-8/9 code needs, while ZF still decodes cleanly.
	cfg := smallCfg()
	cfg.Users = 4
	cfg.Symbols = "PUUUU"
	zfOK, zfTot := blocksOver(t, cfg, Options{Workers: 3}, 16, 12)
	mrcOK, mrcTot := blocksOver(t, cfg, Options{Workers: 3, UseMRC: true}, 16, 12)
	if zfOK != zfTot {
		t.Fatalf("ZF baseline should be clean: %d/%d", zfOK, zfTot)
	}
	if mrcOK >= mrcTot {
		t.Fatalf("MRC with K=2 streams decoded everything (%d/%d); interference should bite", mrcOK, mrcTot)
	}
}

func blocksOver(t *testing.T, cfg frameConfig, opts Options, snr float64, frames int) (ok, total int) {
	t.Helper()
	res := runFrames(t, cfg, opts, frames, snr)
	for _, r := range res {
		ok += r.BlocksOK
		total += r.BlocksTotal
	}
	return
}

func TestStalePrecoderSendsBeforeZF(t *testing.T) {
	cfg := smallCfg()
	cfg.Antennas = 16
	cfg.Users = 4
	cfg.Symbols = "PDDD"
	ring := fronthaul.NewRing(8192, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 28, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Slow ZF (SVD path) plus pilot packets paced over the symbol
	// duration, as a real RRU delivers them: the window in which stale
	// precoding lets the downlink start transmitting.
	eng, err := NewEngine(cfg, Options{Workers: 3, StaleDLSymbols: 2,
		DisableInverseOpt: true}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	// Drain downlink packets so the ring never fills.
	go func() {
		for {
			pkt, ok := rru.Recv()
			if !ok {
				return
			}
			rru.Release(pkt)
		}
	}()
	pacedSend := func(pkt []byte) error {
		time.Sleep(30 * time.Microsecond) // ~packet spacing on the wire
		return rru.Send(pkt)
	}
	var beforeZF int
	for f := 0; f < 5; f++ {
		if err := gen.EmitFrame(uint32(f), pacedSend); err != nil {
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
		if res.FirstTX.IsZero() || res.TXDone.IsZero() {
			t.Fatalf("frame %d missing TX milestones", f)
		}
		// Frame 0 has no previous precoder; later frames should be able
		// to start transmitting before their own ZF completes.
		if f > 0 && res.FirstTX.Before(res.ZFDone) {
			beforeZF++
		}
	}
	if beforeZF == 0 {
		t.Fatal("stale precoding never produced TX before ZF completion")
	}
}

func TestStalePrecoderDisabledWaitsForZF(t *testing.T) {
	cfg := smallCfg()
	cfg.Symbols = "PDD"
	res := runFramesDL(t, cfg, Options{Workers: 3}, 3)
	for _, r := range res {
		if r.FirstTX.Before(r.ZFDone) {
			t.Fatalf("frame %d transmitted before ZF without stale precoding", r.Frame)
		}
	}
}

// runFramesDL mirrors runFrames for downlink schedules (drains TX packets).
func runFramesDL(t *testing.T, cfg frameConfig, opts Options, n int) []FrameResult {
	t.Helper()
	ring := fronthaul.NewRing(8192, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 28, 19)
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
	go func() {
		for {
			pkt, ok := rru.Recv()
			if !ok {
				return
			}
			rru.Release(pkt)
		}
	}()
	var out []FrameResult
	for f := 0; f < n; f++ {
		if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-eng.Results():
			out = append(out, r)
		case <-time.After(20 * time.Second):
			t.Fatalf("frame %d timed out", f)
		}
	}
	return out
}

// frameConfig aliases the config type for test helpers in this file.
type frameConfig = frame.Config

func TestDuplicateAndReorderedPacketsHandled(t *testing.T) {
	// UDP can duplicate and reorder packets; the manager must dedupe so
	// frame accounting stays exact, and must tolerate arbitrary arrival
	// order within a frame.
	cfg := smallCfg()
	ring := fronthaul.NewRing(8192, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 23)
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
	for f := 0; f < 3; f++ {
		// Collect the frame's packets, then send them reversed and with
		// every third packet duplicated.
		var pkts [][]byte
		if err := gen.EmitFrame(uint32(f), func(p []byte) error {
			pkts = append(pkts, append([]byte(nil), p...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := len(pkts) - 1; i >= 0; i-- {
			if err := rru.Send(pkts[i]); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if err := rru.Send(pkts[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		select {
		case r := <-eng.Results():
			if r.Dropped || r.BlocksOK != r.BlocksTotal {
				t.Fatalf("frame %d under reorder+dup: dropped=%v blocks %d/%d",
					f, r.Dropped, r.BlocksOK, r.BlocksTotal)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("frame %d timed out under reorder+dup", f)
		}
	}
	if eng.Drops() == 0 {
		t.Fatal("duplicates were not counted as drops")
	}
}

func TestSelectiveChannelGroupSizeTradeoff(t *testing.T) {
	// Over a frequency-selective channel, per-group ZF works while the
	// group is narrower than the coherence bandwidth and degrades when it
	// is much wider — the design trade-off behind the paper's groups of
	// 16 subcarriers.
	run := func(groupSize, taps int) (ok, total int) {
		cfg := smallCfg()
		// 16-QAM rate-2/3 needs ~11 dB post-equalization SINR, so the
		// residual interference of a mis-matched wide-group equalizer is
		// visible (QPSK would shrug it off).
		cfg.Order = modulation.QAM16
		cfg.Rate = ldpc.Rate23
		cfg.LiftingZ = 0
		cfg.ZFGroupSize = groupSize
		cfg.Symbols = "PUUUU"
		ring := fronthaul.NewRing(8192, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
		gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 37)
		if err != nil {
			t.Fatal(err)
		}
		gen.SetSelective(taps)
		eng, err := NewEngine(cfg, Options{Workers: 3}, ring.Side(1))
		if err != nil {
			t.Fatal(err)
		}
		eng.Start()
		defer eng.Stop()
		rru := ring.Side(0)
		for f := 0; f < 4; f++ {
			if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
				t.Fatal(err)
			}
			select {
			case r := <-eng.Results():
				ok += r.BlocksOK
				total += r.BlocksTotal
			case <-time.After(20 * time.Second):
				t.Fatal("timeout")
			}
		}
		return ok, total
	}
	// Narrow groups over a mildly selective channel: clean.
	if ok, total := run(4, 4); ok != total {
		t.Fatalf("narrow groups over 4-tap channel: %d/%d", ok, total)
	}
	// One giant group over a highly selective channel: must degrade.
	if ok, total := run(128, 32); ok == total {
		t.Fatalf("full-band ZF over 32-tap channel decoded everything (%d/%d)", ok, total)
	}
}

func TestCyclicPrefixEndToEnd(t *testing.T) {
	// With a cyclic prefix, the generator prepends the symbol tail and
	// the engine strips it; bits must survive exactly, including over a
	// frequency-selective channel where the CP is what isolates symbols.
	cfg := smallCfg()
	cfg.CPLen = 16
	ring := fronthaul.NewRing(8192, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, 41)
	if err != nil {
		t.Fatal(err)
	}
	gen.SetSelective(4)
	eng, err := NewEngine(cfg, Options{Workers: 3}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	for f := 0; f < 3; f++ {
		if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-eng.Results():
			if r.Dropped || r.BlocksOK != r.BlocksTotal {
				t.Fatalf("frame %d with CP: dropped=%v blocks %d/%d",
					f, r.Dropped, r.BlocksOK, r.BlocksTotal)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("timeout")
		}
	}
}

func TestEmptySymbolsSkipped(t *testing.T) {
	// 'E' symbols carry nothing in either direction; the frame must
	// complete without waiting for packets that never come.
	cfg := smallCfg()
	cfg.Symbols = "PUEUE"
	res := runFrames(t, cfg, Options{Workers: 3}, 2, 28)
	for _, r := range res {
		if r.Dropped || r.BlocksOK != r.BlocksTotal {
			t.Fatalf("frame with empty symbols: %+v", r)
		}
		// Two uplink symbols' worth of blocks only.
		if r.BlocksTotal != 2*cfg.Users {
			t.Fatalf("blocks %d, want %d", r.BlocksTotal, 2*cfg.Users)
		}
	}
}

func TestQAM256EndToEnd(t *testing.T) {
	// 256-QAM is the paper's "higher modulation order" future-work item;
	// at high SNR the chain must decode it cleanly.
	cfg := smallCfg()
	cfg.Order = modulation.QAM256
	cfg.Rate = ldpc.Rate23
	cfg.LiftingZ = 0
	res := runFrames(t, cfg, Options{Workers: 3}, 2, 38)
	for _, r := range res {
		if r.Dropped || r.BlocksOK != r.BlocksTotal {
			t.Fatalf("256-QAM frame: dropped=%v blocks %d/%d", r.Dropped, r.BlocksOK, r.BlocksTotal)
		}
	}
}

func TestTaskAccountingExact(t *testing.T) {
	// Every task must execute exactly once per frame: the merged task
	// stats must equal the analytic per-frame counts, uplink and
	// downlink, with batching both on and off.
	for _, batching := range []bool{false, true} {
		cfg := smallCfg()
		cfg.Symbols = "PUUD"
		ring := fronthaul.NewRing(8192, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
		gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 28, 47)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(cfg, Options{Workers: 3, DisableBatching: !batching}, ring.Side(1))
		if err != nil {
			t.Fatal(err)
		}
		eng.Start()
		rru := ring.Side(0)
		go func() {
			for {
				pkt, ok := rru.Recv()
				if !ok {
					return
				}
				rru.Release(pkt)
			}
		}()
		const frames = 3
		for f := 0; f < frames; f++ {
			if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
				t.Fatal(err)
			}
			select {
			case r := <-eng.Results():
				if r.Dropped {
					t.Fatal("frame dropped")
				}
			case <-time.After(20 * time.Second):
				t.Fatal("timeout")
			}
		}
		eng.Stop()
		st := eng.TaskStats()
		// The engine's demod block count differs with batching off.
		demodBlocks := eng.cfg.DemodBlocks()
		want := map[queue.TaskType]int{
			queue.TaskPilotFFT: frames * cfg.Antennas,
			queue.TaskZF:       frames * eng.cfg.ZFGroups(),
			queue.TaskFFT:      frames * 2 * cfg.Antennas, // 2 UL symbols
			queue.TaskDemod:    frames * 2 * demodBlocks,
			queue.TaskDecode:   frames * 2 * cfg.Users,
			queue.TaskEncode:   frames * 1 * cfg.Users, // 1 DL symbol
			queue.TaskPrecode:  frames * 1 * eng.cfg.ZFGroups(),
			queue.TaskIFFT:     frames * 1 * cfg.Antennas,
		}
		for tt, n := range want {
			if st[tt].Count != n {
				t.Errorf("batching=%v: %v executed %d times, want %d",
					batching, tt, st[tt].Count, n)
			}
		}
	}
}
