package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/mat"
	"repro/internal/modulation"
	"repro/internal/queue"
	"repro/internal/workload"
)

// TestZFSingularFallsBackToConjugate drives runZF on a CSI group with
// one all-zero user column: the Gram matrix is singular, so the Cholesky
// factorization and the Gauss–Jordan inverse both fail, and the task
// must install the conjugate equalizer of the same H, bit for bit, and
// zero the downlink precoder.
func TestZFSingularFallsBackToConjugate(t *testing.T) {
	for _, symbols := range []string{"PUU", "PUD"} {
		cfg := smallCfg()
		cfg.Users = 3
		cfg.Symbols = symbols
		eng, err := NewEngine(cfg, Options{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		const dead = 1
		rng := rand.New(rand.NewSource(5))
		h := eng.buf.csi[0][0]
		for r := 0; r < h.Rows; r++ {
			for c := range h.Row(r) {
				if c != dead {
					h.Row(r)[c] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
				}
			}
		}
		ws := mat.NewZFWorkspace(cfg.Users)
		if err := mat.ZFEqualizerInto(mat.New(cfg.Users, cfg.Antennas), h, ws); err != mat.ErrSingular {
			t.Fatalf("%s: ZFEqualizerInto on a dead user column returned %v, want ErrSingular", symbols, err)
		}
		want := mat.New(cfg.Users, cfg.Antennas)
		mat.ConjugateEqualizerIntoWS(want, h, ws)
		pre := eng.buf.pre[0][0]
		if eng.hasDownlink {
			for i := range pre.Data {
				pre.Data[i] = 1
			}
		}
		eng.workers[0].runZF(0, 0)
		eq := eng.buf.eq[0][0]
		for i, v := range eq.Data {
			if math.Float32bits(real(v)) != math.Float32bits(real(want.Data[i])) ||
				math.Float32bits(imag(v)) != math.Float32bits(imag(want.Data[i])) {
				t.Fatalf("%s: eq[%d] = %v, conjugate equalizer %v", symbols, i, v, want.Data[i])
			}
		}
		for u := 0; u < cfg.Users; u++ {
			live := slices.ContainsFunc(eq.Row(u), func(v complex64) bool { return v != 0 })
			if live != (u != dead) {
				t.Fatalf("%s: user %d row nonzero=%v, want %v", symbols, u, live, u != dead)
			}
		}
		if eng.hasDownlink != (symbols == "PUD") {
			t.Fatalf("%s: hasDownlink=%v", symbols, eng.hasDownlink)
		}
		if eng.hasDownlink && slices.ContainsFunc(pre.Data, func(v complex64) bool { return v != 0 }) {
			t.Fatalf("%s: precoder not zeroed on a singular channel", symbols)
		}
	}
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
	// Every task must execute exactly once per frame: the manager's
	// per-type totals must equal the analytic per-frame counts, uplink and
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
		st := eng.MetricsSnapshot().Tasks
		// The engine's demod and precode block counts differ with
		// batching off.
		demodBlocks := eng.cfg.DemodBlocks()
		want := map[queue.TaskType]int{
			queue.TaskPilotFFT: frames * cfg.Antennas,
			queue.TaskZF:       frames * eng.cfg.ZFGroups(),
			queue.TaskFFT:      frames * 2 * cfg.Antennas, // 2 UL symbols
			queue.TaskDemod:    frames * 2 * demodBlocks,
			queue.TaskDecode:   frames * 2 * cfg.Users,
			queue.TaskEncode:   frames * 1 * cfg.Users, // 1 DL symbol
			queue.TaskPrecode:  frames * 1 * eng.cfg.PrecodeBlocks(),
			queue.TaskIFFT:     frames * 1 * cfg.Antennas,
		}
		for tt, n := range want {
			if got := st[tt.String()].Count; got != int64(n) {
				t.Errorf("batching=%v: %v executed %d times, want %d",
					batching, tt, got, n)
			}
		}
	}
}
