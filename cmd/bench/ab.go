package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
)

// A/B of the repository benchmark (-ab <rev>): the benchmark of git
// revision rev (the parent) against the working tree (the change), run
// alternately, seed by seed, so that a drift in host speed weighs on both
// sides alike. Each side's benchmark binary is built once; rev is checked
// out in a temporary git worktree that is removed on every exit path.
// BENCHMARK.json names the workloads and, for each end-to-end metric,
// which direction is better and the relative bound a change may move it
// by; it is only read.

// manifest is the part of BENCHMARK.json the A/B reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []e2eMetric `json:"end_to_end"`
}

// e2eMetric is one end-to-end metric of the manifest.
type e2eMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // relative
}

// runLine is the JSON line a benchmark run ends its stdout with.
type runLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseRunLine returns the last line of out that parses as a run's JSON.
func parseRunLine(out []byte) (runLine, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for i := len(lines) - 1; i >= 0; i-- {
		var r runLine
		if l := bytes.TrimSpace(lines[i]); len(l) > 0 && l[0] == '{' && json.Unmarshal(l, &r) == nil {
			return r, nil
		}
	}
	return runLine{}, errors.New("no JSON result line")
}

// abRow is the verdict on one workload × metric.
type abRow struct {
	Workload, Metric string
	Wins, Pairs      int     // pairs in which the change was strictly better
	Gap              float64 // (change median − parent median) / parent median
	IQR              float64 // parent interquartile range / parent median
	Bound            float64
	Claimed          bool
	Verdict          string
	Fail             bool
}

// Verdicts.
const (
	verdictOK         = "ok"
	verdictUnresolved = "unresolved"    // parent IQR wider than the bound, and the runs overlap
	verdictOutOfBound = "OUT OF BOUND"  // worse than the parent by more than the bound
	verdictWorse      = "worse"         // inside the bound, but resolved: losses as a claim needs wins
	verdictHeld       = "claim held"    // enough wins and a gain beyond the parent IQR
	verdictClaimFail  = "CLAIM FAILED"  // a claimed row that did not hold
	verdictFewPairs   = "TOO FEW PAIRS" // a claimed row judged on fewer than claimMinPairs pairs
	verdictWrong      = "WRONG"         // a run reported wrong outputs
	verdictMoreFailed = "MORE FAILURES" // a larger share of failed frames than the parent
)

// claimWinShare is the share of pairs a claimed row must win, out of at
// least claimMinPairs pairs.
const (
	claimWinShare = 0.9
	claimMinPairs = 10
)

// failedShare names the failed-frames row.
const failedShare = "failed_share"

// foldAB folds the paired runs of each workload into one row per
// end-to-end metric plus a failed-frames row. parent[w][i] and change[w][i]
// ran with the same seed. claims holds "workload:metric" keys. It reports
// whether any row fails: a claimed row that did not hold, an unclaimed
// row worse than its bound, a wrong output or a larger share of failed
// frames.
func foldAB(m manifest, claims map[string]bool, workloads []string, parent, change map[string][]runLine) ([]abRow, bool) {
	var rows []abRow
	anyFail := false
	for _, w := range workloads {
		p, c := parent[w], change[w]
		n := min(len(p), len(c))
		for _, d := range m.EndToEnd {
			pv, cv := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				pv[i], cv[i] = p[i].Metrics[d.Name].Value, c[i].Metrics[d.Name].Value
			}
			r := metricRow(w, d, pv, cv, claims[w+":"+d.Name])
			anyFail = anyFail || r.Fail
			rows = append(rows, r)
		}
		r := failureRow(w, p[:n], c[:n])
		anyFail = anyFail || r.Fail
		rows = append(rows, r)
	}
	return rows, anyFail
}

// metricRow judges one metric over paired values.
func metricRow(w string, d e2eMetric, pv, cv []float64, claimed bool) abRow {
	sign := 1.0 // positive when the change is worse
	if d.Better == "higher" {
		sign = -1
	}
	r := abRow{Workload: w, Metric: d.Name, Pairs: len(pv), Bound: d.Bound, Claimed: claimed}
	losses := 0
	for i := range pv {
		switch d := sign * (cv[i] - pv[i]); {
		case d < 0:
			r.Wins++
		case d > 0:
			losses++
		}
	}
	pm := median(pv)
	if pm != 0 {
		r.Gap = (median(cv) - pm) / pm
		r.IQR = (quantile(pv, 0.75) - quantile(pv, 0.25)) / math.Abs(pm)
	}
	worse := sign * r.Gap
	switch {
	case claimed && r.Pairs < claimMinPairs:
		r.Verdict, r.Fail = verdictFewPairs, true
	case claimed && float64(r.Wins) >= claimWinShare*float64(r.Pairs) && -worse > r.IQR:
		r.Verdict = verdictHeld
	case claimed:
		r.Verdict, r.Fail = verdictClaimFail, true
	case worse > d.Bound:
		r.Verdict, r.Fail = verdictOutOfBound, true
	case float64(losses) >= claimWinShare*float64(r.Pairs) && worse > r.IQR:
		r.Verdict = verdictWorse
	case r.IQR > d.Bound && !dominates(sign, pv, cv):
		r.Verdict = verdictUnresolved
	default:
		r.Verdict = verdictOK
	}
	return r
}

// dominates reports whether every change run reads better than every
// parent run: then a parent spread wider than the bound hides nothing.
func dominates(sign float64, pv, cv []float64) bool {
	for _, c := range cv {
		for _, p := range pv {
			if sign*(c-p) >= 0 {
				return false
			}
		}
	}
	return len(cv) > 0
}

// failureRow compares the share of failed frames over all runs of each
// side; Gap is the change's share minus the parent's.
func failureRow(w string, p, c []runLine) abRow {
	share := func(rs []runLine) (float64, bool) {
		att, fail, ok := 0, 0, true
		for _, r := range rs {
			att += r.Attempted
			fail += r.Failed
			ok = ok && r.Correct
		}
		if att == 0 {
			return 0, ok
		}
		return float64(fail) / float64(att), ok
	}
	ps, pok := share(p)
	cs, cok := share(c)
	r := abRow{Workload: w, Metric: failedShare, Pairs: len(p), Gap: cs - ps, Verdict: verdictOK}
	switch {
	case !pok || !cok:
		r.Verdict, r.Fail = verdictWrong, true
	case cs > ps:
		r.Verdict, r.Fail = verdictMoreFailed, true
	}
	return r
}

// median returns the median of v (the mean of the middle two for even n).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	x := q * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

// printAB writes the verdict table.
func printAB(out io.Writer, rows []abRow) {
	fmt.Fprintf(out, "%-14s %-22s %7s %10s %10s %7s  %s\n",
		"workload", "metric", "wins", "gap", "parent IQR", "bound", "verdict")
	for _, r := range rows {
		name := r.Metric
		if r.Claimed {
			name += " *"
		}
		wins := fmt.Sprintf("%d/%d", r.Wins, r.Pairs)
		gap, iqr, bound := fmt.Sprintf("%+.1f%%", 100*r.Gap), fmt.Sprintf("%.1f%%", 100*r.IQR), fmt.Sprintf("%.0f%%", 100*r.Bound)
		if r.Metric == failedShare {
			wins, gap, iqr, bound = "-", fmt.Sprintf("%+.4f", r.Gap), "-", "-"
		}
		fmt.Fprintf(out, "%-14s %-22s %7s %10s %10s %7s  %s\n",
			r.Workload, name, wins, gap, iqr, bound, r.Verdict)
	}
	fmt.Fprintf(out, "* claimed: must win ≥ 90%% of at least %d pairs and gain more than the parent IQR\n", claimMinPairs)
}

// abConfig is one -ab invocation.
type abConfig struct {
	rev       string
	pairs     int
	workloads []string // empty: every workload of the manifest
	claims    []string // workload:metric
}

// runAB runs the A/B and prints its verdicts. It reports whether any row
// failed; err is set when the A/B itself could not run.
func runAB(c abConfig) (failed bool, err error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	top, err := gitOutput(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return false, err
	}
	raw, err := os.ReadFile(filepath.Join(top, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	workloads, claims, err := abSelection(m, c.workloads, c.claims)
	if err != nil {
		return false, err
	}

	tmp, err := os.MkdirTemp("", "agora-ab-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	tree := filepath.Join(tmp, "parent")
	if _, err := gitOutput(ctx, top, "worktree", "add", "--detach", tree, c.rev); err != nil {
		return false, err
	}
	defer func() {
		// A fresh context: the run's own may already be cancelled.
		bg := context.Background()
		gitOutput(bg, top, "worktree", "remove", "--force", tree)
		gitOutput(bg, top, "worktree", "prune")
	}()

	dirs := map[string]string{"parent": tree, "change": top}
	bins := map[string]string{}
	for _, side := range []string{"parent", "change"} {
		bins[side] = filepath.Join(tmp, "benchmark-"+side)
		fmt.Fprintf(os.Stderr, "ab: building the %s benchmark\n", side)
		// Not bound to ctx: cancelling would kill the go command but not
		// the compilers it started, which could still be writing into tmp
		// while it is removed. A build takes seconds; wait for it.
		cmd := exec.Command("go", "build", "-o", bins[side], ".")
		cmd.Dir = filepath.Join(dirs[side], "benchmark")
		if out, err := cmd.CombinedOutput(); err != nil {
			return false, fmt.Errorf("building the %s benchmark: %v\n%s", side, err, out)
		}
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
	}

	runs := map[string]map[string][]runLine{"parent": {}, "change": {}}
	for seed := 1; seed <= c.pairs; seed++ {
		order := []string{"parent", "change"}
		if seed%2 == 0 {
			order[0], order[1] = order[1], order[0]
		}
		for _, w := range workloads {
			for _, side := range order {
				r, err := benchRun(ctx, bins[side], filepath.Join(dirs[side], "benchmark"), w, seed)
				if err != nil {
					return false, fmt.Errorf("%s %s seed %d: %w", side, w, seed, err)
				}
				runs[side][w] = append(runs[side][w], r)
				fmt.Fprintf(os.Stderr, "ab: seed %d/%d %-13s %-6s p50 %.3f ms, %.0f frames/s\n", seed, c.pairs, w, side,
					r.Metrics["frame_latency_p50_ms"].Value, r.Metrics["frames_per_s"].Value)
			}
		}
	}
	rows, failed := foldAB(m, claims, workloads, runs["parent"], runs["change"])
	fmt.Printf("A/B: %s (parent) against the working tree, %d pairs\n", c.rev, c.pairs)
	printAB(os.Stdout, rows)
	return failed, nil
}

// abSelection checks the requested workloads and claims against the
// manifest.
func abSelection(m manifest, want, claimList []string) ([]string, map[string]bool, error) {
	var all []string
	for _, w := range m.Workloads {
		all = append(all, w.Name)
	}
	workloads := all
	if len(want) > 0 {
		workloads = want
	}
	for _, w := range workloads {
		if !slices.Contains(all, w) {
			return nil, nil, fmt.Errorf("unknown workload %q", w)
		}
	}
	claims := map[string]bool{}
	for _, cl := range claimList {
		w, metric, ok := strings.Cut(cl, ":")
		known := slices.ContainsFunc(m.EndToEnd, func(d e2eMetric) bool { return d.Name == metric })
		if !ok || !slices.Contains(workloads, w) || !known {
			return nil, nil, fmt.Errorf("claim %q is not workload:metric, an end-to-end metric of a selected workload", cl)
		}
		claims[cl] = true
	}
	return workloads, claims, nil
}

// benchRun runs one benchmark workload, for the run length the benchmark
// itself sets, and returns its result line. A run is one process, so
// cancelling ctx kills all of it.
func benchRun(ctx context.Context, bin, dir, workload string, seed int) (runLine, error) {
	cmd := exec.CommandContext(ctx, bin, "-workload", workload, "-seed", fmt.Sprint(seed))
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return runLine{}, ctx.Err()
	}
	r, err := parseRunLine(stdout.Bytes())
	if err != nil {
		return runLine{}, fmt.Errorf("%v (%v): %s", err, runErr, lastLine(stderr.Bytes()))
	}
	return r, nil
}

// gitOutput runs git in dir ("" for the working directory) and returns
// its trimmed stdout.
func gitOutput(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, lastLine(stderr.Bytes()))
	}
	return strings.TrimSpace(string(out)), nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	return s[strings.LastIndexByte(s, '\n')+1:]
}
