// Quickstart: run a scaled-down Agora end to end on a laptop.
//
// A software RRU synthesizes uplink traffic (user bits → LDPC → 64-QAM →
// channel → IFFT → 12-bit IQ packets), Agora turns the packets back into
// bits, and the program reports per-frame latency and block error rate.
//
//	go run ./examples/quickstart
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro"

	"repro/internal/ldpc"
	"repro/internal/modulation"
)

func main() {
	var (
		frames  = flag.Int("frames", 20, "frames to process")
		workers = flag.Int("workers", 4, "worker goroutines")
		snr     = flag.Float64("snr", 25, "channel SNR in dB")
	)
	flag.Parse()

	cfg := agora.Config{
		Antennas:        16,
		Users:           4,
		OFDMSize:        512,
		DataSubcarriers: 304,
		Order:           modulation.QAM16,
		Rate:            ldpc.Rate23,
		DecodeIter:      8,
		Symbols:         agora.UplinkSchedule(1, 6),
		ZFGroupSize:     16,
		DemodBlockSize:  64,
		FFTBatch:        2,
		ZFBatch:         3,
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("configuration:", cfg.String())
	fmt.Printf("uplink capacity: %.1f Mbit/s\n", cfg.UplinkDataRate()/1e6)

	start := time.Now()
	sum, err := agora.RunUplink(cfg, agora.Options{Workers: *workers, KeepBits: true},
		agora.Rayleigh, *snr, *frames, false, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("processed %d frames in %v\n", sum.Frames, time.Since(start).Round(time.Millisecond))
	fmt.Printf("frame latency: median=%v p99.9=%v max=%v\n",
		sum.Latency.Median().Round(time.Microsecond),
		sum.Latency.P999().Round(time.Microsecond),
		sum.Latency.Max().Round(time.Microsecond))
	fmt.Printf("blocks decoded: %d/%d (BLER %.2g), bit errors %d/%d\n",
		sum.BlocksOK, sum.BlocksTotal, sum.BLER(), sum.BitErrs, sum.Bits)
	fmt.Println("\nper-task costs (paper Table 3 analogue):")
	for _, t := range []agora.TaskType{agora.TaskPilotFFT, agora.TaskZF,
		agora.TaskFFT, agora.TaskDemod, agora.TaskDecode} {
		s := sum.Metrics.Tasks[t.String()]
		fmt.Printf("  %-9s %6d tasks  %8.2f µs/task  total %7.2f ms\n",
			t.String(), s.Count, s.MeanUS, s.TotalMS)
	}
}
