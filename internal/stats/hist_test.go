package stats

import (
	"math/rand"
	"testing"
	"time"
)

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Quantile(50) != 0 {
		t.Fatalf("empty hist not all-zero: count=%d max=%v mean=%v q50=%v",
			h.Count(), h.Max(), h.Mean(), h.Quantile(50))
	}
}

func TestHistSingleSample(t *testing.T) {
	var h Hist
	h.Add(123456 * time.Nanosecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, p := range []float64{0, 50, 99.9, 100} {
		if got := h.Quantile(p); got != 123456 {
			t.Fatalf("q%v = %v, want exact single sample (max caps the bucket)", p, got)
		}
	}
	if h.Mean() != 123456 || h.Max() != 123456 {
		t.Fatalf("mean=%v max=%v", h.Mean(), h.Max())
	}
}

// TestHistExactSmallBuckets pins the unit-resolution region: values below
// histSub land in exact buckets, so quantiles are exact.
func TestHistExactSmallBuckets(t *testing.T) {
	var h Hist
	for v := int64(0); v < histSub; v++ {
		h.AddNS(v)
	}
	if got := h.Quantile(100); got != histSub-1 {
		t.Fatalf("q100 = %v, want %d", got, histSub-1)
	}
	// nearest-rank q50 over 0..31 is rank 16 → value 15.
	if got := h.Quantile(50); got != 15 {
		t.Fatalf("q50 = %v, want 15", got)
	}
	if h.Mean() != time.Duration(histSub-1)/2 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

// TestHistBucketMapping pins histIdx/histUpper consistency: every value
// maps to a bucket whose range contains it, buckets are monotone, and the
// reported upper bound is within 1/histSub of the value.
func TestHistBucketMapping(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20,
		(1 << 20) + 7, 1 << 40, 1<<62 - 1} {
		idx := histIdx(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("v=%d: idx %d out of range", v, idx)
		}
		if idx < prev {
			t.Fatalf("v=%d: bucket index not monotone (%d after %d)", v, idx, prev)
		}
		prev = idx
		up := histUpper(idx)
		if up < v {
			t.Fatalf("v=%d: upper bound %d below value", v, up)
		}
		if v >= histSub {
			if rel := float64(up-v) / float64(v); rel > 1.0/histSub {
				t.Fatalf("v=%d: upper %d relative error %v > 1/%d", v, up, rel, histSub)
			}
		}
	}
}

// TestHistQuantileErrorBound cross-checks the histogram against the exact
// Reservoir on random heavy-tailed data: every quantile must be ≥ the
// exact value and within the 1/histSub relative-error bound.
func TestHistQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Hist
	r := NewReservoir(20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~5 decades, like latency tails.
		v := int64(100 * (1 << uint(rng.Intn(17))))
		v += rng.Int63n(v)
		h.AddNS(v)
		r.Add(time.Duration(v))
	}
	for _, p := range []float64{10, 50, 90, 99, 99.9, 100} {
		exact := float64(r.Percentile(p))
		got := float64(h.Quantile(p))
		if got < exact {
			t.Fatalf("q%v: hist %v below exact %v", p, got, exact)
		}
		if rel := (got - exact) / exact; rel > 1.0/histSub+1e-9 {
			t.Fatalf("q%v: hist %v vs exact %v, relative error %v > 1/%d",
				p, got, exact, rel, histSub)
		}
	}
	if h.Max() != r.Max() {
		t.Fatalf("max %v != exact %v", h.Max(), r.Max())
	}
	if diff := h.Mean() - r.Mean(); diff > 1 || diff < -1 { // ±1 ns rounding
		t.Fatalf("mean %v != exact %v", h.Mean(), r.Mean())
	}
}

func TestHistNegativeClamps(t *testing.T) {
	var h Hist
	h.AddNS(-5)
	if h.Count() != 1 || h.Quantile(100) != 0 {
		t.Fatalf("negative sample should clamp to zero: count=%d q100=%v",
			h.Count(), h.Quantile(100))
	}
}

// TestHistMerge: hists merged bucket-wise answer every query exactly as
// one hist fed the union of their samples, including an empty side.
func TestHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, b, empty, union Hist
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64() * 4e5)
		if i%3 == 0 {
			b.AddNS(v)
		} else {
			a.AddNS(v)
		}
		union.AddNS(v)
	}
	b.AddNS(9e9) // the max lies on the merged-in side
	union.AddNS(9e9)
	var m Hist
	m.Merge(&a)
	m.Merge(&empty)
	m.Merge(&b)
	if m.Count() != union.Count() || m.Mean() != union.Mean() || m.Max() != union.Max() {
		t.Fatalf("merged count/mean/max %d/%v/%v, union %d/%v/%v",
			m.Count(), m.Mean(), m.Max(), union.Count(), union.Mean(), union.Max())
	}
	for _, p := range []float64{0, 1, 25, 50, 90, 99, 99.9, 100} {
		if got, want := m.Quantile(p), union.Quantile(p); got != want {
			t.Fatalf("q%v merged %v, union %v", p, got, want)
		}
	}
}
