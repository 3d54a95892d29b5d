package stats

import (
	"sync"
	"time"
)

// RateRing converts cumulative counters into a fixed-size window of
// per-interval rates, so a dashboard sees frames/sec and drops/sec rather
// than lifetime sums. One sampler goroutine calls Observe on a tick
// (cmd/agora uses 1s); any number of readers may Snapshot concurrently.
// Capacity is fixed at construction — the ring never grows.
type RateRing struct {
	mu    sync.Mutex
	names []string
	// ring of samples, one slot per Observe call
	times []time.Time // sample wall-clock
	rates [][]float64 // [slot][series] per-second rate
	last  []float64   // previous cumulative values
	n     uint64      // total Observe calls
}

// NewRateRing creates a ring retaining the most recent capacity samples
// of len(names) series (minimum capacity 1).
func NewRateRing(capacity int, names []string) *RateRing {
	if capacity < 1 {
		capacity = 1
	}
	r := &RateRing{
		names: append([]string(nil), names...),
		times: make([]time.Time, capacity),
		rates: make([][]float64, capacity),
		last:  make([]float64, len(names)),
	}
	for i := range r.rates {
		r.rates[i] = make([]float64, len(names))
	}
	return r
}

// Names returns the series names, in series order.
func (r *RateRing) Names() []string { return append([]string(nil), r.names...) }

// Observe records the counters' cumulative values at time now, storing
// the per-second deltas since the previous call. The first call only
// establishes the baseline (no sample is stored). Values must align with
// the constructor's names. A counter that moves backwards (reset)
// re-baselines that series to rate 0 for the interval.
func (r *RateRing) Observe(now time.Time, values []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		copy(r.last, values)
		r.times[0] = now // baseline time lives in the slot Observe(1) fills
		r.n = 1
		return
	}
	prev := r.times[(r.n-1)%uint64(len(r.times))]
	dt := now.Sub(prev).Seconds()
	slot := r.n % uint64(len(r.times))
	r.times[slot] = now
	for i := range r.last {
		var rate float64
		if dt > 0 && values[i] >= r.last[i] {
			rate = (values[i] - r.last[i]) / dt
		}
		r.rates[slot][i] = rate
		r.last[i] = values[i]
	}
	r.n++
}

// RatePoint is one sample in a series snapshot.
type RatePoint struct {
	At   time.Time `json:"at"`
	Rate float64   `json:"rate"`
}

// RateSeries is one counter's windowed per-second rates, oldest first.
type RateSeries struct {
	Name   string      `json:"name"`
	Points []RatePoint `json:"points"`
}

// Snapshot copies the retained window, oldest sample first. The baseline
// observation is excluded (it has no rate).
func (r *RateRing) Snapshot() []RateSeries {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RateSeries, len(r.names))
	cap64 := uint64(len(r.times))
	// samples live in slots [start, r.n); slot 0 of a fresh ring is the
	// baseline and carries no rate.
	start := uint64(1)
	if r.n > cap64 {
		start = r.n - cap64
	}
	for s := range out {
		out[s].Name = r.names[s]
		if r.n > start {
			out[s].Points = make([]RatePoint, 0, r.n-start)
		}
	}
	for i := start; i < r.n; i++ {
		slot := i % cap64
		for s := range out {
			out[s].Points = append(out[s].Points, RatePoint{
				At: r.times[slot], Rate: r.rates[slot][s],
			})
		}
	}
	return out
}
