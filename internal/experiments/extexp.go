package experiments

import (
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/harness"
	"repro/internal/mat"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The experiments in this file go beyond the paper's evaluation section,
// covering its discussion items: the §3.4.2 stale-precoder optimization,
// the §4.2 conjugate-beamforming alternative, fronthaul-loss robustness,
// and the §8 scaling projection to 128×64 MIMO.

func init() {
	All["stale"] = Stale
	All["mrc"] = MRC
	All["loss"] = Loss
	All["scaleup"] = ScaleUp
	All["selective"] = Selective
}

// Stale quantifies the §3.4.2 optimization: how much earlier the downlink
// starts transmitting when the first symbols reuse the previous frame's
// precoder, and what the staleness costs in post-precoding interference
// as the channel ages (Gauss–Markov correlation rho between frames).
func Stale(w io.Writer, o Opt) error {
	o = o.withDefaults()
	frames := o.frames(6, 20)
	fmt.Fprintln(w, "# Extension (paper §3.4.2): stale-precoder downlink")
	fmt.Fprintln(w, "# part 1: time from first packet to first TX, with/without stale precoding")
	cfg := scaledCfg(16, 4)
	cfg.Symbols = "PDDDDDD"
	if err := cfg.Validate(); err != nil {
		return err
	}
	measure := func(staleSyms int) (firstTX, zfDone time.Duration, err error) {
		ring := fronthaul.NewRing(8192, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
		gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 28, o.Seed)
		if err != nil {
			return 0, 0, err
		}
		eng, err := core.NewEngine(cfg, core.Options{Workers: o.Workers,
			StaleDLSymbols: staleSyms, DisableInverseOpt: true}, ring.Side(1))
		if err != nil {
			return 0, 0, err
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
		paced := func(pkt []byte) error {
			time.Sleep(20 * time.Microsecond)
			return rru.Send(pkt)
		}
		var ftxSum, zfSum time.Duration
		n := 0
		for f := 0; f < frames; f++ {
			if err := gen.EmitFrame(uint32(f), paced); err != nil {
				return 0, 0, err
			}
			select {
			case r := <-eng.Results():
				if !r.Dropped && f > 0 { // frame 0 has no stale precoder
					ftxSum += r.FirstTX.Sub(r.FirstPkt)
					zfSum += r.ZFDone.Sub(r.FirstPkt)
					n++
				}
			case <-time.After(60 * time.Second):
				return 0, 0, fmt.Errorf("stale: frame timeout")
			}
		}
		return ftxSum / time.Duration(n), zfSum / time.Duration(n), nil
	}
	offTX, offZF, err := measure(0)
	if err != nil {
		return err
	}
	onTX, onZF, err := measure(3)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-12s %-12s\n", "mode", "first_tx", "zf_done")
	fmt.Fprintf(w, "%-18s %-12v %-12v\n", "precoder fresh", offTX.Round(time.Microsecond), offZF.Round(time.Microsecond))
	fmt.Fprintf(w, "%-18s %-12v %-12v\n", "stale (3 syms)", onTX.Round(time.Microsecond), onZF.Round(time.Microsecond))
	fmt.Fprintf(w, "RRU idle-time reduction: %v per frame\n", (offTX - onTX).Round(time.Microsecond))

	fmt.Fprintln(w, "\n# part 2: staleness cost — post-precoding SIR when the channel has")
	fmt.Fprintln(w, "# aged with correlation rho since the precoder was computed")
	fmt.Fprintf(w, "%-7s %-10s\n", "rho", "SIR_dB")
	rng := rand.New(rand.NewSource(o.Seed))
	for _, rho := range []float64{1.0, 0.999, 0.99, 0.95, 0.9} {
		fmt.Fprintf(w, "%-7g %-10.1f\n", rho, staleSIRdB(rho, 64, 16, rng))
	}
	fmt.Fprintln(w, "# paper expectation: negligible penalty at pedestrian mobility (rho≈1)")
	return nil
}

// staleSIRdB computes the signal-to-interference ratio a user sees when
// the ZF precoder was computed on H but the channel has evolved to H'.
func staleSIRdB(rho float64, m, k int, rng *rand.Rand) float64 {
	h := mat.New(m, k)
	h.Random(rng)
	pre := mat.New(m, k)
	if err := mat.ZFPrecoderInto(pre, h, mat.NewZFWorkspace(k)); err != nil {
		return math.Inf(-1)
	}
	channel.Evolve(h, rho, rng)
	// Received gain matrix G = H'ᵀ W: diagonal = signal, rest leak.
	var sig, leak float64
	for u := 0; u < k; u++ {
		for x := 0; x < k; x++ {
			var acc complex128
			for a := 0; a < m; a++ {
				acc += complex128(h.At(a, u)) * complex128(pre.At(a, x))
			}
			p := cmplx.Abs(acc)
			p *= p
			if u == x {
				sig += p
			} else {
				leak += p
			}
		}
	}
	if leak == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(sig/leak)
}

// MRC compares zero-forcing against conjugate (maximum-ratio-combining)
// beamforming — the lower-overhead linear method the paper cites for
// ill-conditioned channels (§4.2): BLER on the real engine plus the
// post-equalization SINR scaling with M/K.
func MRC(w io.Writer, o Opt) error {
	o = o.withDefaults()
	frames := o.frames(6, 20)
	fmt.Fprintln(w, "# Extension (paper §4.2): zero-forcing vs conjugate beamforming")
	fmt.Fprintf(w, "%-8s %-7s %-10s %-10s\n", "MIMO", "SNR_dB", "ZF_BLER", "MRC_BLER")
	for _, c := range [][2]int{{8, 4}, {16, 4}, {32, 4}} {
		cfg := scaledCfg(c[0], c[1])
		run := func(mrc bool) (float64, error) {
			return harnessUplink(cfg, core.Options{Workers: o.Workers, UseMRC: mrc}, 16, frames, o.Seed)
		}
		zf, err := run(false)
		if err != nil {
			return err
		}
		mrc, err := run(true)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %-7d %-10.3f %-10.3f\n",
			fmt.Sprintf("%dx%d", c[0], c[1]), 16, zf, mrc)
	}
	fmt.Fprintln(w, "# expect: ZF clean everywhere; MRC limited by inter-user interference,")
	fmt.Fprintln(w, "#   recovering as M/K grows (favorable propagation)")
	return nil
}

// Loss measures robustness to fronthaul packet loss: the fraction of
// frames delivered as the loss rate grows, and that the engine stays
// live throughout (reaping incomplete frames rather than wedging).
func Loss(w io.Writer, o Opt) error {
	o = o.withDefaults()
	frames := o.frames(10, 40)
	fmt.Fprintln(w, "# Extension: fronthaul packet-loss robustness")
	fmt.Fprintf(w, "%-10s %-12s %-12s %-10s\n", "loss_rate", "delivered", "reaped", "blocksOK")
	cfg := scaledCfg(8, 2)
	if err := cfg.Validate(); err != nil {
		return err
	}
	for _, rate := range []float64{0, 0.001, 0.01, 0.05} {
		ring := fronthaul.NewRing(8192, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
		gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 25, o.Seed)
		if err != nil {
			return err
		}
		eng, err := core.NewEngine(cfg, core.Options{Workers: o.Workers,
			FrameTimeout: 300 * time.Millisecond}, ring.Side(1))
		if err != nil {
			return err
		}
		eng.Start()
		rru := ring.Side(0)
		rng := rand.New(rand.NewSource(o.Seed))
		lossy := func(pkt []byte) error {
			if rng.Float64() < rate {
				return nil // dropped on the wire
			}
			return rru.Send(pkt)
		}
		delivered, reaped, blocksOK, blocksTotal := 0, 0, 0, 0
		for f := 0; f < frames; f++ {
			if err := gen.EmitFrame(uint32(f), lossy); err != nil {
				return err
			}
			select {
			case r := <-eng.Results():
				if r.Dropped {
					reaped++
				} else {
					delivered++
					blocksOK += r.BlocksOK
					blocksTotal += r.BlocksTotal
				}
			case <-time.After(60 * time.Second):
				eng.Stop()
				return fmt.Errorf("loss: engine wedged at rate %v", rate)
			}
		}
		eng.Stop()
		fmt.Fprintf(w, "%-10g %-12s %-12d %d/%d\n", rate,
			fmt.Sprintf("%d/%d", delivered, frames), reaped, blocksOK, blocksTotal)
	}
	fmt.Fprintln(w, "# expect: every frame accounted for (delivered+reaped); lossless frames clean")
	return nil
}

// ScaleUp runs the paper's §8 projection: 128 antennas and 64 users
// roughly 16x the zero-forcing cost and 4x the decoding cost — how many
// workers does the frame rate need, and where does the time go?
func ScaleUp(w io.Writer, o Opt) error {
	o = o.withDefaults()
	fmt.Fprintln(w, "# Extension (paper §8): scaling projection on the calibrated simulator")
	fmt.Fprintf(w, "%-10s %-8s %-12s %-10s %-10s %-10s\n",
		"MIMO", "cores", "median_ms", "zf_ms", "decode_ms", "sync_ms")
	cases := [][2]int{{64, 16}, {128, 32}, {128, 64}}
	if o.Quick {
		cases = [][2]int{{64, 16}, {128, 64}}
	}
	for _, c := range cases {
		base := sim.Config{Frame: paperCell(c[0], c[1]), Frames: o.frames(6, 16)}
		cores, r, err := minWorkersKeepingUp(base, 8, 240)
		if err != nil {
			return err
		}
		perFrame := float64(base.Frames)
		fmt.Fprintf(w, "%-10s %-8d %-12.2f %-10.2f %-10.2f %-10.2f\n",
			fmt.Sprintf("%dx%d", c[0], c[1]), cores, r.MedianLatencyUS()/1000,
			r.BlockComputeMS[queue.TaskZF]/perFrame,
			r.BlockComputeMS[queue.TaskDecode]/perFrame,
			r.SyncMS/perFrame)
	}
	fmt.Fprintln(w, "# paper: ~200-core servers should cover 128x64; ZF grows ~16x, decode ~4x")
	return nil
}

// frameConfig aliases the cell config type for brevity.
type frameConfig = frame.Config

// harnessUplink runs frames and returns the run's BLER.
func harnessUplink(cfg frameConfig, opts core.Options, snr float64, frames int, seed int64) (float64, error) {
	sum, err := harness.RunUplink(cfg, opts, channel.Rayleigh, snr, frames, false, seed)
	if err != nil {
		return 0, err
	}
	return sum.BLER(), nil
}

// Selective is the ZF-group-size ablation the paper's flat-channel
// emulation cannot show: over a frequency-selective multipath channel,
// Agora's "one precoder per 16 subcarriers" design (§6.2.1) trades
// matrix-inversion count against equalization accuracy. The table
// reports BLER per (group size, delay spread) plus the ZF task count,
// the cost side of the trade.
func Selective(w io.Writer, o Opt) error {
	o = o.withDefaults()
	frames := o.frames(4, 16)
	fmt.Fprintln(w, "# Extension: ZF group size vs channel selectivity (design ablation)")
	fmt.Fprintln(w, "# 16-QAM R=2/3, 8x2 over 256-pt OFDM; multipath with 3 dB/tap profile")
	groupSizes := []int{4, 16, 64, 128}
	taps := []int{1, 4, 16, 32}
	if o.Quick {
		groupSizes = []int{4, 128}
		taps = []int{1, 32}
	}
	fmt.Fprintf(w, "%-8s %-8s", "group", "ZFtasks")
	for _, tp := range taps {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("%d-tap", tp))
	}
	fmt.Fprintln(w, "   (BLER)")
	for _, gs := range groupSizes {
		cfg := scaledCfg(8, 2)
		cfg.OFDMSize = 256
		cfg.DataSubcarriers = 128
		cfg.Symbols = frame.UplinkSchedule(1, 4)
		cfg.ZFGroupSize = gs
		if err := cfg.Validate(); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d %-8d", gs, cfg.ZFGroups())
		for _, tp := range taps {
			bler, err := selectiveBLER(cfg, o, tp, frames)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %10.3f", bler)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "# expect: flat channel insensitive to group size; selective channels")
	fmt.Fprintln(w, "#   punish wide groups; narrow groups cost more ZF tasks")
	return nil
}

func selectiveBLER(cfg frameConfig, o Opt, taps, frames int) (float64, error) {
	ring := fronthaul.NewRing(8192, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 30, o.Seed)
	if err != nil {
		return 0, err
	}
	gen.SetSelective(taps)
	eng, err := core.NewEngine(cfg, core.Options{Workers: o.Workers}, ring.Side(1))
	if err != nil {
		return 0, err
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	ok, total := 0, 0
	for f := 0; f < frames; f++ {
		gen.Redraw()
		if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
			return 0, err
		}
		select {
		case r := <-eng.Results():
			ok += r.BlocksOK
			total += r.BlocksTotal
		case <-time.After(60 * time.Second):
			return 0, fmt.Errorf("selective: frame timeout")
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("selective: no blocks")
	}
	return float64(total-ok) / float64(total), nil
}
