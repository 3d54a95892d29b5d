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
// It can also snapshot the Go benchmark suite into a machine-readable
// baseline for regression tracking:
//
//	go run ./cmd/bench -baseline                       # run suite, write BENCH_BASELINE.json
//	go run ./cmd/bench -baseline -baseline-count 5     # 5 samples/benchmark, medians recorded
//	go run ./cmd/bench -baseline -baseline-input a.txt # parse saved `go test -bench` output
//
// And guard against performance regressions by re-running the recorded
// benchmarks and failing when any median degrades past the tolerance
// (wired into `make check` via the perf target):
//
//	go run ./cmd/bench -compare BENCH_BASELINE.json
//	go run ./cmd/bench -compare BENCH_BASELINE.json -compare-tol 0.05
//
// A deterministic tripwire guards the layered decoder's convergence speed
// (mean iterations-to-converge on a fixed workload; no timing involved):
//
//	go run ./cmd/bench -iters BENCH_BASELINE.json
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

		baseline  = flag.Bool("baseline", false, "snapshot the Go benchmark suite to a JSON baseline and exit")
		blPattern = flag.String("baseline-bench", ".", "benchmark regexp passed to go test -bench")
		blCount   = flag.Int("baseline-count", 5, "samples per benchmark (medians are recorded)")
		blNote    = flag.String("baseline-note", "", "free-form provenance note stored in the baseline")
		blOut     = flag.String("baseline-out", "BENCH_BASELINE.json", "output path ('-' for stdout)")

		stages = flag.String("stages", "", "capture a traced uplink run and write the per-stage breakdown JSON (Table-2 analogue) to this path ('-' for stdout)")

		iters    = flag.String("iters", "", "baseline JSON whose decode_iters section gates the deterministic iterations-to-converge measurement (exits non-zero on >iters-tol regression)")
		itersTol = flag.Float64("iters-tol", 0.10, "allowed fractional mean-iteration regression for -iters")

		overhead      = flag.Bool("overhead", false, "run the SLO/flight-recorder benchmark pair (recorder on vs off) and gate its cost")
		overheadCount = flag.Int("overhead-count", 5, "samples per overhead benchmark (medians compared)")
		overheadTol   = flag.Float64("overhead-tol", 0.10, "allowed fractional recorder cost before the gate fails")

		compare  = flag.String("compare", "", "baseline JSON to check for regressions (exits non-zero on >tolerance median regression)")
		cmpBench = flag.String("compare-bench", "Table1|Fig9", "benchmark regexp re-run for the comparison")
		cmpCount = flag.Int("compare-count", 5, "samples per benchmark for the comparison (matches -baseline-count so both medians have the same sturdiness)")
		cmpTol   = flag.Float64("compare-tol", 0.10, "allowed fractional regression per median")
		cmpZero  = flag.String("compare-zero-alloc", "SteadyState", "regexp of benchmarks that must report exactly 0 allocs/op and 0 B/op (empty disables)")
	)
	var blInputs multiFlag
	flag.Var(&blInputs, "baseline-input", "parse saved `go test -bench -benchmem` output instead of running (repeatable)")
	flag.Parse()
	if *baseline {
		if err := runBaseline(blInputs, *blPattern, *blCount, *blNote, *blOut); err != nil {
			fmt.Fprintf(os.Stderr, "baseline failed: %v\n", err)
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
	if *iters != "" {
		if err := runIters(*iters, *itersTol); err != nil {
			fmt.Fprintf(os.Stderr, "iters failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *overhead {
		if err := runOverhead(*overheadCount, *overheadTol); err != nil {
			fmt.Fprintf(os.Stderr, "overhead failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *compare != "" {
		if err := runCompare(*compare, *cmpBench, *cmpCount, *cmpTol, *cmpZero); err != nil {
			fmt.Fprintf(os.Stderr, "compare failed: %v\n", err)
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

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
