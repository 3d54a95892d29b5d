// Package stats collects the latency measurements the evaluation
// reports: per-frame processing times in a Reservoir with exact
// percentiles (median, p99, p99.9, max), CCDFs, simple mean/stddev
// accumulators for per-task costs, and a fixed-allocation log-bucketed
// streaming histogram (Hist) that the live metrics plane uses where a
// reservoir's memory or sort cost would not fit.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Reservoir accumulates duration samples and answers percentile queries.
// It keeps every sample (experiments collect at most a few thousand
// frames, following the paper's 8000-frame runs).
type Reservoir struct {
	samples []time.Duration
	sorted  bool
}

// NewReservoir pre-sizes for n samples.
func NewReservoir(n int) *Reservoir {
	return &Reservoir{samples: make([]time.Duration, 0, n)}
}

// Add records one sample.
func (r *Reservoir) Add(d time.Duration) {
	r.samples = append(r.samples, d)
	r.sorted = false
}

// Count returns the number of samples.
func (r *Reservoir) Count() int { return len(r.samples) }

func (r *Reservoir) sort() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank; it returns 0 with no samples.
func (r *Reservoir) Percentile(p float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.sort()
	rank := int(math.Ceil(p/100*float64(len(r.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(r.samples) {
		rank = len(r.samples) - 1
	}
	return r.samples[rank]
}

// Median is Percentile(50).
func (r *Reservoir) Median() time.Duration { return r.Percentile(50) }

// P999 is Percentile(99.9), the paper's tail metric.
func (r *Reservoir) P999() time.Duration { return r.Percentile(99.9) }

// Max returns the largest sample.
func (r *Reservoir) Max() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.sort()
	return r.samples[len(r.samples)-1]
}

// Mean returns the arithmetic mean.
func (r *Reservoir) Mean() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	var s float64
	for _, d := range r.samples {
		s += float64(d)
	}
	return time.Duration(s / float64(len(r.samples)))
}

// CCDF returns (value, P(X > value)) pairs at each distinct sample, the
// representation used for Figure 7.
func (r *Reservoir) CCDF() (vals []time.Duration, prob []float64) {
	if len(r.samples) == 0 {
		return nil, nil
	}
	r.sort()
	n := len(r.samples)
	for i := 0; i < n; i++ {
		if i+1 < n && r.samples[i+1] == r.samples[i] {
			continue
		}
		vals = append(vals, r.samples[i])
		prob = append(prob, float64(n-i-1)/float64(n))
	}
	return vals, prob
}

// Summary renders the headline percentiles.
func (r *Reservoir) Summary() string {
	return fmt.Sprintf("n=%d median=%v p99.9=%v max=%v",
		r.Count(), r.Median().Round(time.Microsecond),
		r.P999().Round(time.Microsecond), r.Max().Round(time.Microsecond))
}
