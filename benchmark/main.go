// Command benchmark is the repository's benchmark: it replays seeded,
// pre-generated fronthaul traffic through a real core.Engine (or
// fleet.Fleet) over the in-process ring, checks every output against
// ground truth, and reports the end-to-end metrics named in
// BENCHMARK.json — or, with -trace 1, the per-layer metrics of a separate
// traced run. See README.md.
//
//	go run -C benchmark . -seed 1                 # every workload
//	go run -C benchmark . -workload cell_edge     # one workload
//	go run -C benchmark . -workload cell_edge -trace 1
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// report is the JSON object a run prints as its last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload in this process (default: every workload, one subprocess each)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 12, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: the traced run (per-layer metrics, span file); 0: the gating run (end-to-end metrics)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *name == "" {
		err = runAll(*seed, *seconds, *trace)
	} else {
		err = runOne(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// budget is how long one workload's process may live: the measured time
// plus generous room for set-up on a loaded host, inside the 180 s cap.
func budget(seconds float64) time.Duration {
	d := time.Duration((seconds + 60) * float64(time.Second))
	if d > 170*time.Second {
		d = 170 * time.Second
	}
	return d
}

// runOne runs one workload in this process, so peak RSS and GC state are
// the workload's own. A wedged engine cannot hang it: the watchdog exits
// non-zero without a result.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := w.cfg.Validate(); err != nil {
		return err
	}
	watchdog := time.AfterFunc(budget(seconds), func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its %v budget; giving up\n", name, budget(seconds))
		os.Exit(3)
	})
	defer watchdog.Stop()

	var res *result
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		res, err = runTraced(w, seed, seconds)
	} else {
		res, err = runUntraced(w, seed, seconds)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	res.print(os.Stdout, w, defs)
	rep := report{
		Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{res.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.correct {
		return fmt.Errorf("%s: outputs wrong or frames failed (%d of %d)", name, res.failed, res.attempted)
	}
	return nil
}

// runAll re-executes this binary once per workload and prints every
// workload's output. A child that outlives its budget is killed and
// reported failed; the others still run.
func runAll(seed int64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads() {
		ctx, cancel := context.WithTimeout(context.Background(), budget(seconds)+10*time.Second)
		cmd := exec.CommandContext(ctx, self,
			"-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		cancel()
		os.Stdout.Write(out)
		if err == nil {
			err = checkReport(out)
		}
		if err != nil {
			fmt.Printf("== %s: FAILED: %v\n", w.name, err)
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %s", strings.Join(failed, ", "))
	}
	return nil
}

// checkReport requires a child's last output line to be a correct report.
func checkReport(out []byte) error {
	var last string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return fmt.Errorf("no result line: %w", err)
	}
	if !rep.Correct || rep.Attempted < 1 {
		return errors.New("result reports incorrect output")
	}
	return nil
}
