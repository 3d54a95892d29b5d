package obs

import (
	"time"

	"repro/internal/stats"
)

// Per-second rate series over the live counter set (DESIGN §12): a
// dashboard wants frames/sec and drops/sec, not lifetime sums. The
// sampler reads a Snapshot (an engine's, or a fleet's merged totals)
// and folds the table rows that name a rate series into a RateRing;
// cmd/agora drives it from a 1s ticker and serves the window at
// /debug/rates.

// RateSampler periodically folds a snapshot into a fixed-size per-second
// rate window. Single sampler goroutine; concurrent readers.
type RateSampler struct {
	ring *stats.RateRing
	read func() Snapshot
	// Ratio series state (single-sampler memory): the ring stores
	// per-second deltas, so the sampler feeds it a synthetic cumulative
	// Σ ratio·dt whose delta/dt recovers the interval's ratio of deltas.
	num, den []int64
	cum      []float64
	lastAt   time.Time
}

// NewRateSampler creates a sampler retaining the most recent window
// samples, reading snapshots via read.
func NewRateSampler(window int, read func() Snapshot) *RateSampler {
	names := make([]string, len(rateRows))
	for k, r := range rateRows {
		names[k] = r.rate.name
	}
	n := len(rateRows)
	return &RateSampler{
		ring: stats.NewRateRing(window, names), read: read,
		num: make([]int64, n), den: make([]int64, n), cum: make([]float64, n),
	}
}

// Sample takes one reading at time now. Call from a single goroutine on
// a tick.
func (s *RateSampler) Sample(now time.Time) {
	snap := s.read()
	vals := make([]float64, len(rateRows))
	for k, r := range rateRows {
		if r.kind != ratio {
			vals[k] = r.value(&snap)
			continue
		}
		num, den := r.of(&snap)
		var frac float64
		if d := den - s.den[k]; d > 0 {
			frac = float64(num-s.num[k]) / float64(d)
		}
		if !s.lastAt.IsZero() {
			s.cum[k] += frac * now.Sub(s.lastAt).Seconds()
		}
		s.num[k], s.den[k] = num, den
		vals[k] = s.cum[k]
	}
	s.lastAt = now
	s.ring.Observe(now, vals)
}

// Snapshot returns the windowed series, oldest first.
func (s *RateSampler) Snapshot() []stats.RateSeries { return s.ring.Snapshot() }
