// Uplink64x16 runs the paper's headline configuration — 64 antennas, 16
// users, 2048-subcarrier OFDM with 1200 in use, 64-QAM, rate-1/3 LDPC —
// end to end in software, exactly the workload of paper §6.1.
//
// On the paper's 64-core server this runs in real time with 26 workers;
// on a small machine it still runs correctly, just slower than the frame
// rate. The -sim flag additionally replays the same frame schedule on the
// calibrated scheduling simulator with 26 virtual workers to show the
// real-time behaviour.
//
//	go run ./examples/uplink64x16 -frames 4
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"repro"
)

func main() {
	var (
		frames  = flag.Int("frames", 4, "frames to process")
		workers = flag.Int("workers", runtime.NumCPU(), "worker goroutines")
		symbols = flag.Int("symbols", 13, "uplink data symbols per frame (13 = 1 ms frame)")
		sim     = flag.Bool("sim", true, "also run the 26-worker scheduling simulation")
	)
	flag.Parse()

	cfg := agora.Default64x16()
	cfg.Symbols = agora.UplinkSchedule(1, *symbols)
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("configuration:", cfg.String())
	fmt.Printf("uplink capacity: %.0f Mbit/s (paper: 454 Mb/s at R=1/3)\n",
		cfg.UplinkDataRate()/1e6)

	start := time.Now()
	sum, err := agora.RunUplink(cfg, agora.Options{Workers: *workers},
		agora.Rayleigh, 25, *frames, false, 7)
	if err != nil {
		log.Fatal(err)
	}
	el := time.Since(start)
	fmt.Printf("\nreal execution (%d workers on %d CPUs):\n", *workers, runtime.NumCPU())
	fmt.Printf("  %d frames in %v (%.1f ms/frame)\n", sum.Frames, el.Round(time.Millisecond),
		float64(el.Milliseconds())/float64(sum.Frames))
	fmt.Printf("  latency: median=%v max=%v\n",
		sum.Latency.Median().Round(time.Microsecond), sum.Latency.Max().Round(time.Microsecond))
	fmt.Printf("  blocks: %d/%d (BLER %.2g)\n", sum.BlocksOK, sum.BlocksTotal, sum.BLER())
	fmt.Println("\n  per-task costs (compare paper Table 3):")
	for _, t := range []agora.TaskType{agora.TaskPilotFFT, agora.TaskZF,
		agora.TaskFFT, agora.TaskDemod, agora.TaskDecode} {
		s := sum.Metrics.Tasks[t.String()]
		fmt.Printf("    %-9s %6d tasks  %8.2f µs/task  total %8.2f ms\n",
			t.String(), s.Count, s.MeanUS, s.TotalMS)
	}

	if *sim {
		fmt.Println("\nscheduling simulation, 26 virtual workers (paper's core count):")
		r, err := agora.Simulate(agora.SimConfig{Frame: cfg, Workers: 26, Frames: 20})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  median latency %.2f ms (paper: 1.19 ms), keeps up with frame rate: %v\n",
			r.MedianLatencyUS()/1000, r.KeepsUp)
		fmt.Printf("  milestones: queue %.0f µs, pilots %.0f µs, ZF %.0f µs, decode %.0f µs\n",
			r.QueueDelayUS, r.PilotDoneUS, r.ZFDoneUS, r.DecodeDoneUS)
	}
}
