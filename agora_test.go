package agora

import (
	"testing"
	"time"

	"repro/internal/ldpc"
	"repro/internal/modulation"
)

// laptopCfg scales the paper's configuration down to something a 2-core
// CI box processes in milliseconds.
func laptopCfg() Config {
	return Config{
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
		FFTBatch:        2,
		ZFBatch:         3,
	}
}

func TestRunUplinkEndToEnd(t *testing.T) {
	sum, err := RunUplink(laptopCfg(), Options{Workers: 3, KeepBits: true},
		Rayleigh, 30, 5, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Frames != 5 {
		t.Fatalf("frames %d", sum.Frames)
	}
	if sum.BLER() != 0 {
		t.Fatalf("BLER %v at 30 dB", sum.BLER())
	}
	if sum.BitErrs != 0 || sum.Bits == 0 {
		t.Fatalf("bit errors %d/%d", sum.BitErrs, sum.Bits)
	}
	if sum.Latency.Count() != 5 || sum.Latency.Median() <= 0 {
		t.Fatalf("latency reservoir: %s", sum.Latency.Summary())
	}
	if sum.Metrics.Tasks[TaskDecode.String()].Count == 0 {
		t.Fatal("no decode task stats")
	}
}

func TestRunUplinkRealtimePacing(t *testing.T) {
	cfg := laptopCfg()
	start := time.Now()
	sum, err := RunUplink(cfg, Options{Workers: 3}, Rayleigh, 28, 4, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sum.BLER() != 0 {
		t.Fatalf("BLER %v", sum.BLER())
	}
	// 4 frames of 3 symbols each at ~71 µs/symbol: at least ~0.6 ms of
	// pacing must have elapsed.
	if time.Since(start) < 600*time.Microsecond {
		t.Fatal("realtime pacing did not pace")
	}
}

func TestSimulateFacade(t *testing.T) {
	r, err := Simulate(SimConfig{Frame: Default64x16(), Workers: 26, Frames: 6})
	if err != nil {
		t.Fatal(err)
	}
	if r.MedianLatencyUS() <= 0 || !r.KeepsUp {
		t.Fatalf("sim result: %+v", r)
	}
	if PaperCostModel().DecodeUS != 46.5 {
		t.Fatal("paper cost model changed unexpectedly")
	}
}

func TestSchedulesAndPacketSize(t *testing.T) {
	if UplinkSchedule(1, 2) != "PUU" || DownlinkSchedule(1, 1) != "PD" {
		t.Fatal("schedule helpers broken")
	}
	cfg := Default64x16()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if PacketSizeFor(&cfg) <= 64 {
		t.Fatal("packet size too small")
	}
}

func TestBLERMath(t *testing.T) {
	s := RunSummary{BlocksOK: 90, BlocksTotal: 100}
	if s.BLER() != 0.1 {
		t.Fatalf("BLER %v", s.BLER())
	}
	empty := RunSummary{}
	if empty.BLER() != 0 {
		t.Fatal("empty BLER")
	}
}
