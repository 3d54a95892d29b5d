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
	"repro/internal/fronthaul"
	"repro/internal/mat"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The experiments in this file go beyond the paper's evaluation section,
// covering its discussion items: the §3.4.2 stale-precoder optimization
// and the §8 scaling projection to 128×64 MIMO.

func init() {
	All["stale"] = Stale
	All["scaleup"] = ScaleUp
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
