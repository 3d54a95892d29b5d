package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is a fixed-allocation log-bucketed histogram for streaming
// percentiles over nanosecond-scale durations. Values below 2^histSubBits
// land in exact unit buckets; above that, each power of two is split into
// histSub sub-buckets, bounding the relative quantile error at
// 1/histSub (≈3.1%). All state is atomic, so any number of goroutines may
// Add concurrently and a monitoring thread may query live. Unlike
// Reservoir it never grows: the whole histogram is one flat array.
type Hist struct {
	counts [histBuckets]atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64 // Σ ns; wraps after ~292 CPU-years, not a concern
	max    atomic.Int64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits // 32 sub-buckets per power of two
	histBuckets = (64 - histSubBits) * histSub
)

// histIdx maps a non-negative value to its bucket.
func histIdx(v int64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	return shift<<histSubBits + int(uint64(v)>>uint(shift))
}

// histUpper is the largest value a bucket can hold (its reported value).
func histUpper(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	shift := idx>>histSubBits - 1
	m := int64(idx - shift<<histSubBits)
	return (m+1)<<uint(shift) - 1
}

// Add records one duration (negative values clamp to zero).
func (h *Hist) Add(d time.Duration) { h.AddNS(int64(d)) }

// AddNS records one sample in nanoseconds.
func (h *Hist) AddNS(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIdx(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	h.raiseMax(v)
}

// raiseMax lifts max to v if v is larger, racing other writers safely.
func (h *Hist) raiseMax(v int64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Hist) Count() int64 { return h.total.Load() }

// Max returns the exact largest sample (0 when empty).
func (h *Hist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Hist) Mean() time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns the p-th percentile (0 <= p <= 100) by nearest rank
// over the buckets. The result is each bucket's upper bound, so it
// overestimates by at most a factor of 1/32 and never lies below the true
// sample's bucket; the top bucket reports the exact maximum. Empty
// histograms return 0.
func (h *Hist) Quantile(p float64) time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(n))) // nearest rank, as Reservoir
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			v := histUpper(i)
			if m := h.max.Load(); v > m {
				v = m // top occupied bucket: the max is exact
			}
			return time.Duration(v)
		}
	}
	return h.Max()
}

// Merge adds o's samples to h bucket by bucket: counts, total and sum
// add, and the max is the larger. The buckets are the same in every
// Hist, so h then answers Quantile, Mean, Max and Count exactly as one
// histogram fed both sample sets would. Safe while either side is
// written; a merge taken mid-write may miss the samples in flight.
func (h *Hist) Merge(o *Hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.total.Add(o.total.Load())
	h.sum.Add(o.sum.Load())
	h.raiseMax(o.max.Load())
}
