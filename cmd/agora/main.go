// Agora is the baseband server: it receives IQ packets from an RRU (real
// or the cmd/rru emulator) over UDP, runs the full uplink pipeline and
// reports per-frame latency and decode status — the deployment shape of
// paper Figure 3 with the standard library's UDP stack standing in for
// DPDK.
//
//	go run ./cmd/agora -listen :9000 &
//	go run ./cmd/rru   -agora 127.0.0.1:9000 -frames 50
//
// With -cells N it becomes a multi-cell fleet (DESIGN §16): N engines
// behind a cell router demuxing the stream by the packet header's Cell
// byte, with one aggregated expvar endpoint. Pair with cmd/rru -cells N.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -metrics-addr serves /debug/pprof alongside /debug/vars
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"time"

	"repro"

	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/stats"
)

func main() {
	var (
		listen  = flag.String("listen", ":9000", "UDP listen address for fronthaul traffic")
		workers = flag.Int("workers", runtime.NumCPU(), "worker goroutines (per cell when -cells > 1 and -cell-workers is 0)")
		cells   = flag.Int("cells", 1, "run a multi-cell fleet of this many engines behind a cell router")
		cellW   = flag.Int("cell-workers", 0, "shared worker budget split across cells (0 = -workers per cell)")
		scale   = flag.String("scale", "small", "cell preset: small (16x4) or paper (64x16)")
		cfgPath = flag.String("config", "", "JSON cell configuration file (overrides -scale)")
		rt      = flag.Bool("realtime", false, "lock workers to OS threads, relax GC")
		metrics = flag.String("metrics-addr", "", "serve Prometheus /metrics, /debug/incidents, expvar /debug/vars and pprof on this address")
		traceF  = flag.String("trace", "", "write the captured frame window as Chrome trace_event JSON on shutdown")
		noTrace = flag.Bool("no-trace", false, "disable the per-worker event tracer")
		fec     = flag.Int("fec", 0, "Reed-Solomon parity packets per symbol burst (match the RRU's -fec)")
		zfClust = flag.Int("zf-clusters", 0, "decentralized ZF: partition antennas into this many partial-Gram clusters (0/1 = monolithic)")
		incDir  = flag.String("incident-dir", "", "write flight-recorder post-mortems here on shutdown (incidents.json + one Chrome trace per incident)")
	)
	flag.Parse()

	cfg := presetConfig(*scale)
	if *cfgPath != "" {
		var err error
		if cfg, err = agora.LoadConfig(*cfgPath); err != nil {
			log.Fatal(err)
		}
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	opts := agora.Options{
		Workers: *workers, RealTime: *rt, DisableTracing: *noTrace,
		FECParity: *fec, ZFClusters: *zfClust,
	}
	tr, err := agora.NewUDP(*listen, "", agora.PacketSizeFor(&cfg))
	if err != nil {
		log.Fatal(err)
	}
	if *cells > 1 {
		runFleet(cfg, opts, tr, *cells, *cellW, *listen, *metrics, *incDir)
		return
	}
	eng, err := agora.New(cfg, opts, tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("agora: %s\n", cfg.String())
	fmt.Printf("agora: listening on %s with %d workers, kernels %v\n",
		*listen, *workers, eng.Metrics().Kernels)
	if *metrics != "" {
		// expvar registers /debug/vars and net/http/pprof /debug/pprof on
		// the default mux; the snapshot merges live counters with the
		// per-task cost table (safe to read mid-run).
		expvar.Publish("agora", expvar.Func(func() any { return eng.MetricsSnapshot() }))
		registerObs(obs.PromHandler(eng.MetricsSnapshot), eng.Incidents)
		serveMetrics(*metrics)
	}
	eng.Start()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	lat := stats.NewReservoir(4096)
	frames, ok, total := 0, 0, 0
	for {
		select {
		case r := <-eng.Results():
			frames++
			if !r.Dropped {
				lat.Add(r.Latency)
				ok += r.BlocksOK
				total += r.BlocksTotal
			}
			if frames%50 == 0 {
				fmt.Printf("agora: %d frames, latency %s, blocks %d/%d, drops %d\n",
					frames, lat.Summary(), ok, total, eng.Drops())
			}
		case <-sig:
			eng.Stop()
			if *traceF != "" {
				if err := writeTrace(eng, *traceF); err != nil {
					log.Printf("agora: trace export: %v", err)
				} else {
					fmt.Printf("agora: wrote Chrome trace to %s (load in chrome://tracing or ui.perfetto.dev)\n", *traceF)
				}
			}
			if *incDir != "" {
				dumpIncidents(eng.Incidents(), *incDir)
			}
			s := eng.MetricsSnapshot()
			fmt.Printf("\nagora: processed %d frames\n", frames)
			fmt.Printf("agora: deadline misses %d (budget %.3f ms), incidents %d\n",
				s.DeadlineMiss, s.FrameBudgetMS, s.Incidents)
			fmt.Printf("agora: latency %s\n", lat.Summary())
			fmt.Printf("agora: blocks decoded %d/%d, packet drops %d\n", ok, total, eng.Drops())
			fh := s.Fronthaul
			fmt.Printf("agora: fronthaul rx %d pkts, seq gaps %d, late %d, FEC recovered %d\n",
				fh.RxPkts, fh.SeqGaps, fh.SeqLate, fh.FECRecovered)
			fmt.Println("agora: per-task costs:")
			for t := queue.TaskType(0); t < queue.NumTaskTypes; t++ {
				ts := s.Tasks[t.String()]
				if ts.Count == 0 {
					continue
				}
				fmt.Printf("  %-9s %6d tasks %8.2f µs/task\n", t, ts.Count, ts.MeanUS)
			}
			return
		case <-time.After(30 * time.Second):
			fmt.Println("agora: idle (waiting for fronthaul traffic)...")
		}
	}
}

// runFleet is the -cells N path: one router ingesting the UDP stream,
// demuxing to per-cell engines, publishing one aggregated expvar
// snapshot, and reporting per-cell + fleet totals on SIGINT.
func runFleet(cfg agora.Config, opts agora.Options, tr agora.Transport,
	cells, cellWorkers int, listen, metrics, incDir string) {
	fl, err := agora.NewFleet(agora.FleetConfig{
		Cells: cells, Frame: cfg, Opts: opts, TotalWorkers: cellWorkers,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("agora: %s\n", cfg.String())
	if cellWorkers > 0 {
		fmt.Printf("agora: fleet of %d cells on %s (%d shared workers)\n",
			cells, listen, cellWorkers)
	} else {
		fmt.Printf("agora: fleet of %d cells on %s (%d workers each)\n",
			cells, listen, opts.Workers)
	}
	fmt.Printf("agora: kernels %v\n", fl.Engine(0).Metrics().Kernels)
	if metrics != "" {
		expvar.Publish("agora", expvar.Func(func() any { return fl.Snapshot() }))
		registerObs(obs.PromFleetHandler(fl.Snapshot), fl.Incidents)
		serveMetrics(metrics)
	}
	fl.Start()
	fl.Serve(tr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	lat := stats.NewReservoir(4096)
	perCell := make([]int, cells)
	frames, ok, total := 0, 0, 0
	for {
		select {
		case r := <-fl.Results():
			frames++
			perCell[r.Cell]++
			if !r.Dropped {
				lat.Add(r.Latency)
				ok += r.BlocksOK
				total += r.BlocksTotal
			}
			if frames%50 == 0 {
				fmt.Printf("agora: %d frames (%v per cell), latency %s, blocks %d/%d, shed %d\n",
					frames, perCell, lat.Summary(), ok, total, fl.Shed())
			}
		case <-sig:
			// Drain in-flight frames before tearing the cells down, then
			// print the aggregated fleet view.
			if err := fl.Drain(5 * time.Second); err != nil {
				log.Printf("agora: %v", err)
			}
			_ = tr.Close()
			fl.Stop()
			for r := range fl.Results() {
				frames++
				perCell[r.Cell]++
				if !r.Dropped {
					lat.Add(r.Latency)
					ok += r.BlocksOK
					total += r.BlocksTotal
				}
			}
			if incDir != "" {
				dumpIncidents(fl.Incidents(), incDir)
			}
			snap := fl.Snapshot()
			fmt.Printf("\nagora: fleet processed %d frames across %d cells %v\n",
				frames, cells, perCell)
			fmt.Printf("agora: merged latency %s\n", lat.Summary())
			fmt.Printf("agora: blocks decoded %d/%d, shed %d packets\n", ok, total, fl.Shed())
			fmt.Printf("agora: totals: dropped %d, deadline misses %d, seq gaps %d, FEC recovered %d\n",
				snap.Totals.Dropped, snap.Totals.DeadlineMiss,
				snap.Totals.Fronthaul.SeqGaps, snap.Totals.Fronthaul.FECRecovered)
			for _, c := range snap.PerCell {
				fmt.Printf("  cell %d [%s]: %d frames, %d dropped, p99 %.2f ms\n",
					c.Cell, c.State, c.Frames, c.Dropped, c.Latency.P99MS)
			}
			if b, err := json.MarshalIndent(snap.Totals, "", "  "); err == nil {
				fmt.Printf("agora: fleet totals JSON:\n%s\n", b)
			}
			return
		case <-time.After(30 * time.Second):
			fmt.Println("agora: idle (waiting for fronthaul traffic)...")
		}
	}
}

// registerObs wires the DESIGN §12 observability surface onto the
// default mux (served by serveMetrics): Prometheus text on /metrics and
// the flight recorder on /debug/incidents. A scraper computes rates
// and windowed maxima from /metrics itself.
func registerObs(prom http.Handler, incidents func() []agora.Incident) {
	http.Handle("/metrics", prom)
	http.HandleFunc("/debug/incidents", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteIncidentsJSON(w, incidents()); err != nil {
			log.Printf("agora: incidents: %v", err)
		}
	})
}

// dumpIncidents writes the flight recorder's retained post-mortems:
// one indexed JSON document plus a per-incident Chrome trace, each
// loadable in chrome://tracing or ui.perfetto.dev.
func dumpIncidents(incs []agora.Incident, dir string) {
	if len(incs) == 0 {
		fmt.Println("agora: flight recorder empty (no incidents)")
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("agora: incident dir: %v", err)
		return
	}
	idx := filepath.Join(dir, "incidents.json")
	f, err := os.Create(idx)
	if err != nil {
		log.Printf("agora: incident export: %v", err)
		return
	}
	if err := obs.WriteIncidentsJSON(f, incs); err != nil {
		log.Printf("agora: incident export: %v", err)
	}
	f.Close()
	for i := range incs {
		p := filepath.Join(dir, fmt.Sprintf("incident-%d.trace.json", incs[i].Seq))
		tf, err := os.Create(p)
		if err != nil {
			log.Printf("agora: incident trace: %v", err)
			continue
		}
		if err := obs.WriteIncidentTrace(tf, &incs[i]); err != nil {
			log.Printf("agora: incident trace: %v", err)
		}
		tf.Close()
	}
	fmt.Printf("agora: wrote %d incidents to %s (index + per-incident Chrome traces)\n",
		len(incs), dir)
}

// serveMetrics starts the expvar/pprof HTTP listener.
func serveMetrics(addr string) {
	go func() {
		fmt.Printf("agora: metrics on http://%s/debug/vars (pprof on /debug/pprof, Prometheus on /metrics)\n", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("agora: metrics server: %v", err)
		}
	}()
}

// writeTrace dumps the engine's captured event window (call after Stop).
func writeTrace(eng *agora.Engine, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := eng.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func presetConfig(scale string) agora.Config {
	switch scale {
	case "paper":
		return agora.Default64x16()
	default:
		cfg := agora.Default64x16()
		cfg.Antennas = 16
		cfg.Users = 4
		cfg.OFDMSize = 512
		cfg.DataSubcarriers = 304
		cfg.LiftingZ = 0
		cfg.Symbols = agora.UplinkSchedule(1, 6)
		return cfg
	}
}
