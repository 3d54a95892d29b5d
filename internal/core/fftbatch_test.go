package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cf"
	"repro/internal/channel"
	"repro/internal/fft"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/modulation"
	"repro/internal/obs"
	"repro/internal/workload"
)

// wideCfg is a 64-antenna cell small enough to run many times: one pilot
// and two data symbols of a 256-point OFDM with a cyclic prefix, so the
// batched front end strips a CP and each grid tile spans 64 cache lines,
// one per antenna.
func wideCfg(fftBatch int) frame.Config {
	return frame.Config{
		Antennas:        64,
		Users:           4,
		OFDMSize:        256,
		CPLen:           18,
		DataSubcarriers: 128,
		Order:           modulation.QPSK,
		Rate:            ldpc.Rate89,
		DecodeIter:      8,
		Pilots:          frame.FreqOrthogonal,
		Symbols:         "PUU",
		ZFGroupSize:     16,
		DemodBlockSize:  32,
		FFTBatch:        fftBatch,
		ZFBatch:         3,
	}
}

// framePackets emits frame 0 of wideCfg's seeded generator: the same
// packets for every FFTBatch, since the batch size does not enter the
// signal chain.
func framePackets(t *testing.T, cfg frame.Config) [][]byte {
	t.Helper()
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 28, 77)
	if err != nil {
		t.Fatal(err)
	}
	var pkts [][]byte
	if err := gen.EmitFrame(0, func(p []byte) error {
		pkts = append(pkts, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return pkts
}

// runArrivalFrame sends pkts through a fresh engine with KeepBits on and
// returns the stopped engine with its frame result.
func runArrivalFrame(t *testing.T, cfg frame.Config, opts Options, pkts [][]byte) (*Engine, FrameResult) {
	t.Helper()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	opts.KeepBits = true
	eng, err := NewEngine(cfg, opts, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	for _, p := range pkts {
		if err := ring.Side(0).Send(p); err != nil {
			eng.Stop()
			t.Fatal(err)
		}
	}
	var res FrameResult
	select {
	case res = <-eng.Results():
	case <-time.After(30 * time.Second):
		eng.Stop()
		t.Fatal("frame timed out")
	}
	eng.Stop()
	if res.Dropped {
		t.Fatal("frame dropped")
	}
	return eng, res
}

// oracleGrid is the post-FFT data grid of each uplink symbol built from
// the frame's packets with public API only: unpack every sample, strip
// the cyclic prefix, transform, and store the data band in 8-subcarrier
// tiles, sample (sc, a) at (sc/8)·8M + 8a + sc%8 — antenna-major,
// a·Q + sc, under DisableMemOpt.
func oracleGrid(t *testing.T, cfg frame.Config, opts Options, pkts [][]byte) map[int][]complex64 {
	t.Helper()
	plan := fft.MustPlan(cfg.OFDMSize)
	m, q, ds := cfg.Antennas, cfg.DataSubcarriers, cfg.DataStart()
	samples := make([]complex64, cfg.SamplesPerSymbol())
	grid := map[int][]complex64{}
	for _, p := range pkts {
		var h fronthaul.Header
		if err := h.Decode(p); err != nil {
			t.Fatal(err)
		}
		sym, a := int(h.Symbol), int(h.Antenna)
		if cfg.SymbolAt(sym) != frame.Uplink {
			continue
		}
		if grid[sym] == nil {
			grid[sym] = make([]complex64, (q+7)/8*8*m)
		}
		cf.UnpackIQ12(samples, fronthaul.Payload(p, &h))
		spec := samples[cfg.CPLen:]
		plan.Forward(spec)
		for sc := 0; sc < q; sc++ {
			if opts.DisableMemOpt {
				grid[sym][a*q+sc] = spec[ds+sc]
			} else {
				grid[sym][sc/8*8*m+a*8+sc%8] = spec[ds+sc]
			}
		}
	}
	return grid
}

// TestFFTBatchEquivalence pins the FFT blocks to a packet-level oracle:
// the frequency-domain data buffer must equal oracleGrid bit for bit, and
// the decoded bits and block outcomes must not depend on the run length,
// whether data-symbol FFT messages carry 1, 2 or 8 antennas — in arrival
// order, and with the packets shuffled and every fifth one duplicated,
// which splits the manager's runs into short non-contiguous pieces (odd
// leftovers included) — on the default path and under every option that
// reroutes the front end or the store.
func TestFFTBatchEquivalence(t *testing.T) {
	pkts := framePackets(t, wideCfg(1))
	shuffled := make([][]byte, 0, len(pkts)+len(pkts)/5+1)
	rng := rand.New(rand.NewSource(5))
	for i, j := range rng.Perm(len(pkts)) {
		shuffled = append(shuffled, pkts[j])
		if i%5 == 0 {
			shuffled = append(shuffled, pkts[j])
		}
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"DisableMemOpt", Options{DisableMemOpt: true}},
		{"DisableDirectStore", Options{DisableDirectStore: true}},
	} {
		for arrival, order := range map[string][][]byte{"in-order": pkts, "shuffled": shuffled} {
			t.Run(tc.name+"/"+arrival, func(t *testing.T) {
				opts := tc.opts
				opts.Workers = 2
				oracle := oracleGrid(t, wideCfg(1), opts, pkts)
				var ref FrameResult
				for _, batch := range []int{1, 2, 8} {
					eng, res := runArrivalFrame(t, wideCfg(batch), opts, order)
					if batch == 1 {
						ref = res
					}
					sameBits(t, []FrameResult{ref}, []FrameResult{res})
					for sym := 1; sym <= 2; sym++ {
						want, got := oracle[sym], eng.buf.dataFreqTile[0][sym]
						if opts.DisableMemOpt {
							got = eng.buf.dataFreqAnt[0][sym]
						}
						if len(want) == 0 || len(got) != len(want) {
							t.Fatalf("FFTBatch=%d sym %d: buffer lengths %d vs %d", batch, sym, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("FFTBatch=%d sym %d: frequency sample %d is %v, oracle %v",
									batch, sym, i, got[i], want[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestFFTBatchLeaseReclaimedMidRun drives runFFT by hand over a run
// whose second lease the manager's teardown sweep already reclaimed: the
// run must be skipped without touching the frame buffer, and the lease it
// had claimed before noticing must be handed back, not stranded.
func TestFFTBatchLeaseReclaimedMidRun(t *testing.T) {
	cfg := wideCfg(4)
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 28, 77)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, Options{Workers: 1}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	// Never started: packets are accepted synchronously, no manager or
	// worker races with the hand-driven task.
	if err := gen.EmitFrame(0, eng.InjectPacket); err != nil {
		t.Fatal(err)
	}
	const slot, sym, ant0, count = 0, 1, 8, 4
	for a := ant0; a < ant0+count; a++ {
		if s := eng.rxLease[slot][sym][a].state.Load(); s != leaseFull {
			t.Fatalf("antenna %d lease state %d before the run, want full", a, s)
		}
	}
	victim := &eng.rxLease[slot][sym][ant0+2]
	if !victim.state.CompareAndSwap(leaseFull, leaseBusy) {
		t.Fatal("could not claim the victim lease")
	}
	eng.freeLeaseBuf(victim)
	victim.state.Store(leaseEmpty)

	eng.workers[0].runFFT(slot, sym, ant0, count)

	for _, v := range eng.buf.dataFreqTile[slot][sym] {
		if v != 0 {
			t.Fatal("aborted run wrote into the frame buffer")
		}
	}
	for a, want := range map[int]uint32{ant0: leaseEmpty, ant0 + 1: leaseEmpty, ant0 + 2: leaseEmpty, ant0 + 3: leaseFull} {
		if s := eng.rxLease[slot][sym][a].state.Load(); s != want {
			t.Fatalf("antenna %d lease state %d after the aborted run, want %d", a, s, want)
		}
	}
	// The rest of the symbol is unaffected: the next run transforms.
	eng.workers[0].runFFT(slot, sym, ant0+4, count)
	nonzero := false
	for sc := 0; sc < cfg.DataSubcarriers; sc++ {
		if eng.buf.dataFreqTile[slot][sym][sc/8*8*cfg.Antennas+(ant0+4)*8+sc%8] != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("run after the aborted one stored nothing")
	}
}

// TestFFTKernelReported checks the engine names the FFT implementation its
// plan runs when a fronthaul ring feeds it.
func TestFFTKernelReported(t *testing.T) {
	ring := fronthaul.NewRing(64, 4096)
	eng, err := NewEngine(smallCfg(), Options{Workers: 1}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	want := obs.KernelRow{Stage: "fft", Kernel: fft.Kernel()}
	if got := eng.MetricsSnapshot().Kernels; !slices.Contains(got, want) {
		t.Fatalf("engine reports kernels %v, want a row %v", got, want)
	}
}
