package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Absolute floors below which a metric is too small for a relative check
// to be meaningful: a benchmark hovering around a few hundred nanoseconds
// (or a couple of allocations) can swing past any percentage tolerance on
// scheduler noise alone.
const (
	compareNsFloor     = 500.0
	compareBytesFloor  = 256.0
	compareAllocsFloor = 4.0
)

// runCompare implements the -compare mode: re-run the benchmarks recorded
// in a committed baseline and fail (exit non-zero) when any median
// regresses by more than tol. It reuses the -baseline plumbing — same
// parser, same median reduction — so the two modes can't drift apart.
//
// Only benchmarks matching pattern AND present in the baseline are
// checked: the baseline stays authoritative about what is guarded, while
// the pattern keeps `make check` fast by re-running just the end-to-end
// medians rather than the whole suite.
// Benchmarks whose name matches zeroAllocPat are additionally held to an
// absolute standard: the fresh run must report exactly 0 allocs/op and
// 0 B/op, no matter what the baseline says. This is the steady-state
// arena guarantee (DESIGN §14) — a single allocation creeping into the
// recycled frame loop fails `make perf` even if it is far below the
// relative tolerance and the absolute floors above.
func runCompare(path, pattern string, count int, tol float64, zeroAllocPat string) error {
	var zeroRe *regexp.Regexp
	if zeroAllocPat != "" {
		var err error
		if zeroRe, err = regexp.Compile(zeroAllocPat); err != nil {
			return fmt.Errorf("-compare-zero-alloc: %w", err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks recorded", path)
	}
	fresh := Baseline{Benchmarks: map[string]BaselineEntry{}}
	samples := map[string][]benchSample{}
	args := append([]string{"test", "-run", "^$", "-bench", pattern,
		"-benchmem", "-count", strconv.Itoa(count)}, benchPackages...)
	fmt.Fprintf(os.Stderr, "compare: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	pr, pw := io.Pipe()
	cmd.Stdout = io.MultiWriter(os.Stderr, pw)
	cmd.Stderr = os.Stderr
	errc := make(chan error, 1)
	go func() { errc <- parseBenchOutput(pr, &fresh, samples) }()
	runErr := cmd.Run()
	pw.Close()
	if perr := <-errc; perr != nil {
		return perr
	}
	if runErr != nil {
		return fmt.Errorf("go test -bench: %w", runErr)
	}
	finalizeBaseline(&fresh, samples)

	// `go test` appends -GOMAXPROCS to a benchmark's name unless it is 1,
	// so a baseline recorded on a host with a different CPU count names the
	// same benchmark differently; match on the name without that suffix.
	baseKey := make(map[string]string, len(base.Benchmarks))
	for name := range base.Benchmarks {
		baseKey[trimProcs(name)] = name
	}
	names := make([]string, 0, len(fresh.Benchmarks))
	for name := range fresh.Benchmarks {
		if _, ok := baseKey[trimProcs(name)]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no benchmark in %s matches -compare-bench %q", path, pattern)
	}
	var regressions []string
	for _, name := range names {
		was, now := base.Benchmarks[baseKey[trimProcs(name)]], fresh.Benchmarks[name]
		check := func(metric string, old, cur, floor float64) {
			if old < floor && cur < floor {
				return
			}
			limit := old * (1 + tol)
			status := "ok"
			if cur > limit {
				status = "REGRESSION"
				regressions = append(regressions, fmt.Sprintf(
					"%s %s: %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)",
					name, metric, old, cur, 100*(cur/old-1), 100*tol))
			}
			fmt.Fprintf(os.Stderr, "compare: %-40s %-10s %12.0f -> %12.0f  %s\n",
				name, metric, old, cur, status)
		}
		check("ns/op", was.NsPerOp, now.NsPerOp, compareNsFloor)
		check("B/op", was.BytesPerOp, now.BytesPerOp, compareBytesFloor)
		check("allocs/op", was.AllocsPerOp, now.AllocsPerOp, compareAllocsFloor)
	}
	// Absolute zero-allocation gate (independent of the baseline): every
	// fresh benchmark matching the pattern, in the baseline or not.
	if zeroRe != nil {
		zeroNames := make([]string, 0, len(fresh.Benchmarks))
		for name := range fresh.Benchmarks {
			if zeroRe.MatchString(name) {
				zeroNames = append(zeroNames, name)
			}
		}
		sort.Strings(zeroNames)
		for _, name := range zeroNames {
			now := fresh.Benchmarks[name]
			status := "ok (0 allocs/op)"
			if now.AllocsPerOp != 0 || now.BytesPerOp != 0 {
				status = "REGRESSION"
				regressions = append(regressions, fmt.Sprintf(
					"%s steady state must not allocate: %.0f allocs/op, %.0f B/op (want 0/0)",
					name, now.AllocsPerOp, now.BytesPerOp))
			}
			fmt.Fprintf(os.Stderr, "compare: %-40s %-10s %12.0f -> %12.0f  %s\n",
				name, "zero-alloc", now.AllocsPerOp, now.BytesPerOp, status)
		}
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "compare: %d median(s) regressed beyond %.0f%%:\n",
			len(regressions), 100*tol)
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		return fmt.Errorf("%d benchmark regression(s) vs %s", len(regressions), path)
	}
	fmt.Fprintf(os.Stderr, "compare: %d benchmark(s) within %.0f%% of %s\n",
		len(names), 100*tol, path)
	return nil
}

// trimProcs strips the -GOMAXPROCS suffix from a benchmark name.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
