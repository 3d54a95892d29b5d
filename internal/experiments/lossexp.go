package experiments

// Fronthaul-loss experiment (DESIGN §15): not a paper table — the paper
// runs on a lossless switched fabric — but the natural companion to its
// fronthaul section once the RX path tolerates loss: frame survival and
// BLER vs. injected packet-loss rate, with and without the Reed-Solomon
// parity budget.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/harness"
)

// FECLoss sweeps seeded-random fronthaul packet loss against the
// engine, FEC off vs. FECParity = 2. Without parity any lost packet
// stalls its frame until the frame timeout (Dropped); with parity the
// engine reconstructs up to 2 losses per symbol burst and the frame
// completes bit-exactly. Reported per point: frames abandoned, packets
// the injector discarded, packets FEC rebuilt, surviving-frame BLER.
func FECLoss(w io.Writer, o Opt) error {
	o = o.withDefaults()
	frames := o.frames(12, 60)
	cfg := scaledCfg(8, 2)
	if !o.Quick {
		cfg = scaledCfg(16, 4)
	}
	rates := []float64{0, 0.005, 0.01, 0.02}
	fmt.Fprintln(w, "# Fronthaul loss sweep: frame survival and BLER vs packet-loss rate")
	fmt.Fprintln(w, "# FEC = 2 Reed-Solomon parity packets per symbol burst (DESIGN §15)")
	fmt.Fprintf(w, "%-6s %-8s %8s %8s %8s %10s %8s\n",
		"fec", "loss", "frames", "dropped", "lost", "recovered", "bler")
	for _, parity := range []int{0, 2} {
		for _, rate := range rates {
			opts := core.Options{
				Workers: o.Workers, KeepBits: true,
				// Short timeout: unrecoverable frames should surface as
				// Dropped quickly, not stall the sweep for 2 s each.
				FrameTimeout: 250 * time.Millisecond,
			}
			link := harness.Link{FECParity: parity, DropRate: rate, LossSeed: o.Seed}
			sum, err := harness.RunUplinkLink(cfg, opts, channel.Rayleigh, 25,
				frames, false, o.Seed, link)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-6d %-8.3f %8d %8d %8d %10d %8.4f\n",
				parity, rate, sum.Frames, sum.Dropped, sum.LossInjected,
				sum.Metrics.Fronthaul.FECRecovered, sum.BLER())
		}
	}
	fmt.Fprintln(w, "# expect: fec=0 frame drops grow with rate; fec=2 absorbs the same loss")
	fmt.Fprintln(w, "# (recovered > 0, dropped ~0) with BLER matching the lossless row")
	return nil
}
