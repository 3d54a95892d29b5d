package harness

import (
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/ldpc"
	"repro/internal/modulation"
	"repro/internal/queue"
)

func cfg() frame.Config {
	return frame.Config{
		Antennas:        8,
		Users:           2,
		OFDMSize:        256,
		DataSubcarriers: 128,
		Order:           modulation.QPSK,
		Rate:            ldpc.Rate89,
		DecodeIter:      8,
		Symbols:         "PUU",
		ZFGroupSize:     16,
		DemodBlockSize:  32,
	}
}

func TestRunUplinkCollectsEverything(t *testing.T) {
	sum, err := RunUplink(cfg(), core.Options{Workers: 2, KeepBits: true},
		channel.Rayleigh, 30, 6, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Frames != 6 || sum.Latency.Count() != 6 || sum.QueueDelay.Count() != 6 {
		t.Fatalf("counts: frames=%d lat=%d qd=%d", sum.Frames, sum.Latency.Count(), sum.QueueDelay.Count())
	}
	if sum.BLER() != 0 || sum.BitErrs != 0 || sum.Bits == 0 {
		t.Fatalf("errors at 30 dB: BLER=%v bits=%d/%d", sum.BLER(), sum.BitErrs, sum.Bits)
	}
	if sum.Drops != 0 {
		t.Fatalf("drops %d", sum.Drops)
	}
	if sum.Metrics.Tasks[queue.TaskDemod.String()].Count == 0 {
		t.Fatal("task stats missing")
	}
}

func TestRunUplinkPacedMatchesFrameRate(t *testing.T) {
	c := cfg()
	n := 6
	start := time.Now()
	sum, err := RunUplink(c, core.Options{Workers: 2}, channel.Rayleigh, 28, n, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	// warmup(2) + n paced frames at ~214 µs each: elapsed must be at
	// least (n-1) frame durations.
	if el := time.Since(start); el < time.Duration(n-1)*c.FrameDuration() {
		t.Fatalf("paced run finished too fast: %v", el)
	}
	if sum.BLER() != 0 {
		t.Fatalf("BLER %v", sum.BLER())
	}
}

func TestRunUplinkRejectsBadConfig(t *testing.T) {
	bad := cfg()
	bad.OFDMSize = 100
	for _, c := range []struct {
		name  string
		cfg   frame.Config
		opts  core.Options
		paced bool
	}{
		{"invalid config", bad, core.Options{Workers: 2}, false},
		// Paced frames overlap, so their decoded bits cannot be scored.
		{"KeepBits with realtimePacing", cfg(), core.Options{Workers: 2, KeepBits: true}, true},
	} {
		if _, err := RunUplink(c.cfg, c.opts, channel.Rayleigh, 25, 1, c.paced, 1); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestRunUplinkLowSNRReportsErrors(t *testing.T) {
	// At -5 dB the high-rate code cannot decode: BLER must be large and
	// the run must still complete (no hangs, no drops).
	sum, err := RunUplink(cfg(), core.Options{Workers: 2, KeepBits: true},
		channel.Rayleigh, -5, 4, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sum.BLER() < 0.5 {
		t.Fatalf("BLER %v at -5 dB is implausibly low", sum.BLER())
	}
	if sum.Frames != 4 {
		t.Fatalf("frames %d", sum.Frames)
	}
}

// TestNoClippingErrorFloor reproduces the bug where antennas with high
// channel row power clipped the 12-bit quantizer, creating a
// seed-dependent error floor that persisted at arbitrarily high SNR.
// With per-antenna gains every seed must decode cleanly at 40 dB.
func TestNoClippingErrorFloor(t *testing.T) {
	cfg := frame.Config{
		Antennas:        8,
		Users:           2,
		OFDMSize:        512,
		DataSubcarriers: 304,
		Order:           modulation.QAM16,
		Rate:            ldpc.Rate23,
		DecodeIter:      5,
		Symbols:         frame.UplinkSchedule(1, 6),
		ZFGroupSize:     16,
		DemodBlockSize:  64,
	}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		sum, err := RunUplink(cfg, core.Options{Workers: 2},
			channel.Rayleigh, 40, 6, false, seed)
		if err != nil {
			t.Fatal(err)
		}
		if sum.BLER() != 0 {
			t.Errorf("seed %d: BLER %.4f at 40 dB (clipping floor?)", seed, sum.BLER())
		}
	}
}
