package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the machine-readable snapshot of the Go benchmark suite that
// gets committed as BENCH_BASELINE.json. Regression checks compare fresh
// runs against it, so it records medians (robust to scheduler noise) rather
// than single samples.
type Baseline struct {
	Goos       string                   `json:"goos,omitempty"`
	Goarch     string                   `json:"goarch,omitempty"`
	CPU        string                   `json:"cpu,omitempty"`
	Note       string                   `json:"note,omitempty"`
	Benchmarks map[string]BaselineEntry `json:"benchmarks"`
	// DecodeIters is the deterministic iterations-to-converge reference
	// the -iters tripwire gates against (see iters.go).
	DecodeIters *ItersBaseline `json:"decode_iters,omitempty"`
}

// BaselineEntry summarizes repeated runs of one benchmark.
type BaselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
}

// benchPackages are the packages whose benchmarks the baseline snapshot
// and the -compare gate run: the root package's paper tables, plus
// internal/ldpc and internal/fft for the kernel A/B pairs that have to
// flip those packages' unexported kernel dispatch (BenchmarkDecode_AVX2 /
// _PureGo, DESIGN §13; BenchmarkFFT512_AVX2 / _PureGo and its siblings,
// DESIGN §10).
var benchPackages = []string{".", "./internal/ldpc", "./internal/fft"}

type benchSample struct {
	ns, bytes, allocs float64
}

// parseBenchOutput consumes `go test -bench -benchmem` text output and
// accumulates samples by benchmark name (the -cpu suffix, if any, is kept
// so distinct parallelism levels stay distinct). Samples from repeated
// calls — e.g. several -baseline-input files — merge into one pool, so
// finalizeBaseline must run only after every input has been parsed.
func parseBenchOutput(r io.Reader, b *Baseline, samples map[string][]benchSample) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			b.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			b.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			b.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		var s benchSample
		ok := false
		// Fields come in (value, unit) pairs after the name and iter count.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				s.ns, ok = v, true
			case "B/op":
				s.bytes = v
			case "allocs/op":
				s.allocs = v
			}
		}
		if ok {
			samples[f[0]] = append(samples[f[0]], s)
		}
	}
	return sc.Err()
}

func finalizeBaseline(b *Baseline, samples map[string][]benchSample) {
	for name, ss := range samples {
		b.Benchmarks[name] = BaselineEntry{
			NsPerOp:     medianBy(ss, func(s benchSample) float64 { return s.ns }),
			BytesPerOp:  medianBy(ss, func(s benchSample) float64 { return s.bytes }),
			AllocsPerOp: medianBy(ss, func(s benchSample) float64 { return s.allocs }),
			Samples:     len(ss),
		}
	}
}

func medianBy(ss []benchSample, key func(benchSample) float64) float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = key(s)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// runBaseline implements the -baseline mode: gather benchmark output
// (either by running the suite or by parsing saved raw output), reduce it
// to per-benchmark medians, and write the JSON snapshot.
func runBaseline(inputs []string, pattern string, count int, note, out string) error {
	b := Baseline{Note: note, Benchmarks: map[string]BaselineEntry{}}
	samples := map[string][]benchSample{}
	if len(inputs) == 0 {
		args := append([]string{"test", "-run", "^$", "-bench", pattern,
			"-benchmem", "-count", strconv.Itoa(count)}, benchPackages...)
		fmt.Fprintf(os.Stderr, "baseline: go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		pr, pw := io.Pipe()
		cmd.Stdout = io.MultiWriter(os.Stderr, pw)
		cmd.Stderr = os.Stderr
		errc := make(chan error, 1)
		go func() { errc <- parseBenchOutput(pr, &b, samples) }()
		runErr := cmd.Run()
		pw.Close()
		if perr := <-errc; perr != nil {
			return perr
		}
		if runErr != nil {
			return fmt.Errorf("go test -bench: %w", runErr)
		}
	} else {
		for _, path := range inputs {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			err = parseBenchOutput(f, &b, samples)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
		}
	}
	finalizeBaseline(&b, samples)
	if len(b.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found")
	}
	iters, err := measureDecodeIters()
	if err != nil {
		return fmt.Errorf("decode iterations reference: %w", err)
	}
	b.DecodeIters = &iters
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "baseline: wrote %d benchmarks to %s\n", len(b.Benchmarks), out)
	return nil
}
