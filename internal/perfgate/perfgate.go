// Package perfgate times two sides of one workload against each other in
// one process, for the gate benchmarks `make perf` runs
// (BenchmarkKernelGate in ldpc, fft, modulation and mat,
// BenchmarkRecorderGate in the root package). A shared host moves its
// whole-process speed by tens of percent between runs, which no absolute
// ns/op threshold survives; the ratio of two sides measured in
// alternation moves far less, so the gates assert ratios only.
package perfgate

import (
	"runtime"
	"slices"
	"time"
)

// Ratio runs a and b alternately for rounds rounds and returns the median
// over the rounds of a's time divided by b's. Each call of a or b is one
// fixed batch of work. Odd rounds run b first, so a drift in host speed
// within a round weighs on both sides alike, and every call starts on a
// freshly collected heap, so neither side pays for the other's garbage.
func Ratio(rounds int, a, b func()) float64 {
	timed := func(f func()) float64 {
		runtime.GC()
		start := time.Now()
		f()
		return float64(time.Since(start))
	}
	r := make([]float64, rounds)
	for i := range r {
		var ta, tb float64
		if i%2 == 0 {
			ta = timed(a)
			tb = timed(b)
		} else {
			tb = timed(b)
			ta = timed(a)
		}
		r[i] = ta / tb
	}
	slices.Sort(r)
	return r[rounds/2]
}
