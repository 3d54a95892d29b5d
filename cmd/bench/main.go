// Bench regenerates the paper's evaluation tables and figures.
//
//	go run ./cmd/bench -exp fig6          # one experiment
//	go run ./cmd/bench -exp all           # the whole evaluation section
//	go run ./cmd/bench -exp table3 -full  # full-size (64x16) run
//
// Each experiment prints the rows/series of the corresponding paper table
// or figure plus the paper's numbers for comparison. Quick mode (default)
// scales problem sizes so the suite finishes in minutes on a small host;
// -full runs the paper-size configurations.
//
// -stages captures a traced uplink run and writes the per-stage
// breakdown (the Table-2 analogue) as JSON:
//
//	go run ./cmd/bench -stages -          # JSON on stdout
//
// -ab <rev> runs the repository benchmark (BENCHMARK.json, benchmark/)
// of git revision rev against the working tree, alternating the two
// seed by seed, and prints per workload and end-to-end metric the wins
// out of the pairs, the median gap and the parent's interquartile range
// (ab.go). It exits non-zero when a claimed row does not hold or another
// row leaves its bound:
//
//	go run ./cmd/bench -ab HEAD~1 -workloads downlink,cell_center -claim downlink:frame_latency_p50_ms
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id ("+strings.Join(experiments.Names(), ", ")+") or 'all'")
		full    = flag.Bool("full", false, "run paper-size configurations (slow on small hosts)")
		frames  = flag.Int("frames", 0, "override frames/blocks per measurement point")
		workers = flag.Int("workers", 0, "override real-engine worker count")
		seed    = flag.Int64("seed", 1, "workload seed")
		stages  = flag.String("stages", "", "capture a traced uplink run and write the per-stage breakdown JSON (Table-2 analogue) to this path ('-' for stdout)")
		ab      = flag.String("ab", "", "A/B the repository benchmark of git revision `rev` (the parent, built in a temporary worktree) against the working tree")
		pairs   = flag.Int("pairs", 10, "-ab: parent/change pairs, one seed each")
		wls     = flag.String("workloads", "", "-ab: comma-separated workloads (default: every workload of BENCHMARK.json)")
		claim   = flag.String("claim", "", "-ab: comma-separated workload:metric rows the change claims to improve")
	)
	flag.Parse()
	if *ab != "" {
		if *pairs < 1 {
			fmt.Fprintln(os.Stderr, "bench: -ab needs -pairs >= 1")
			os.Exit(2)
		}
		failed, err := runAB(abConfig{rev: *ab, pairs: *pairs,
			workloads: splitList(*wls), claims: splitList(*claim)})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ab failed: %v\n", err)
			os.Exit(1)
		}
		if failed {
			os.Exit(1)
		}
		return
	}
	if *stages != "" {
		if err := runStages(*stages, *full, *frames, *workers, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "stages failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: bench -exp <id>|all [-full] [-frames N] [-workers N]")
		fmt.Fprintln(os.Stderr, "experiments:", strings.Join(experiments.Names(), ", "))
		os.Exit(2)
	}
	o := experiments.Opt{Quick: !*full, Frames: *frames, Workers: *workers, Seed: *seed}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.Names()
	}
	for _, id := range ids {
		f, ok := experiments.All[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
		fmt.Printf("==== %s ====\n", id)
		start := time.Now()
		if err := f(os.Stdout, o); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("(%s finished in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
