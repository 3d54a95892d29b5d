package stats

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	r := NewReservoir(100)
	for i := 1; i <= 100; i++ {
		r.Add(time.Duration(i))
	}
	if m := r.Median(); m != 50 {
		t.Fatalf("median %v, want 50", m)
	}
	if p := r.Percentile(99); p != 99 {
		t.Fatalf("p99 %v", p)
	}
	if p := r.P999(); p != 100 {
		t.Fatalf("p99.9 %v", p)
	}
	if r.Max() != 100 || r.Count() != 100 {
		t.Fatal("max/count wrong")
	}
	if r.Mean() != time.Duration(50)+time.Duration(500*time.Nanosecond/time.Nanosecond)/1000 && r.Mean() != 50 {
		// mean of 1..100 = 50.5, truncated to 50ns
		if r.Mean() < 50 || r.Mean() > 51 {
			t.Fatalf("mean %v", r.Mean())
		}
	}
}

func TestEmptyReservoir(t *testing.T) {
	r := NewReservoir(0)
	if r.Median() != 0 || r.Max() != 0 || r.Mean() != 0 {
		t.Fatal("empty reservoir should return zeros")
	}
	v, p := r.CCDF()
	if v != nil || p != nil {
		t.Fatal("empty CCDF should be nil")
	}
}

func TestEmptyReservoirPercentiles(t *testing.T) {
	r := NewReservoir(0)
	for _, p := range []float64{0, 50, 99.9, 100} {
		if got := r.Percentile(p); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
	if r.P999() != 0 {
		t.Fatalf("empty P999 = %v", r.P999())
	}
	if s := r.Summary(); s == "" {
		t.Fatal("empty Summary should still render")
	}
}

func TestSingleSampleReservoir(t *testing.T) {
	r := NewReservoir(1)
	r.Add(7 * time.Microsecond)
	// Every percentile of a one-sample reservoir is that sample — in
	// particular p=0, whose nearest rank would be -1 without clamping.
	for _, p := range []float64{0, 0.1, 50, 99.9, 100} {
		if got := r.Percentile(p); got != 7*time.Microsecond {
			t.Fatalf("Percentile(%v) = %v, want 7µs", p, got)
		}
	}
	if r.Mean() != 7*time.Microsecond || r.Max() != 7*time.Microsecond {
		t.Fatalf("mean=%v max=%v", r.Mean(), r.Max())
	}
	vals, prob := r.CCDF()
	if len(vals) != 1 || prob[0] != 0 {
		t.Fatalf("single-sample CCDF: %v %v", vals, prob)
	}
}

func TestAddAfterQueryResorts(t *testing.T) {
	r := NewReservoir(4)
	r.Add(5)
	_ = r.Median()
	r.Add(1)
	if r.Percentile(0) != 1 {
		t.Fatal("reservoir did not re-sort after Add")
	}
}

func TestCCDF(t *testing.T) {
	r := NewReservoir(4)
	for _, d := range []time.Duration{10, 20, 20, 40} {
		r.Add(d)
	}
	vals, prob := r.CCDF()
	want := map[time.Duration]float64{10: 0.75, 20: 0.25, 40: 0}
	if len(vals) != 3 {
		t.Fatalf("CCDF vals %v", vals)
	}
	for i, v := range vals {
		if math.Abs(prob[i]-want[v]) > 1e-12 {
			t.Fatalf("CCDF P(X>%v) = %v, want %v", v, prob[i], want[v])
		}
	}
}

func TestCCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewReservoir(1000)
	for i := 0; i < 1000; i++ {
		r.Add(time.Duration(rng.Intn(500)))
	}
	vals, prob := r.CCDF()
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] || prob[i] > prob[i-1] {
			t.Fatal("CCDF not monotone")
		}
	}
}

func TestSummaryFormat(t *testing.T) {
	r := NewReservoir(2)
	r.Add(time.Millisecond)
	r.Add(2 * time.Millisecond)
	s := r.Summary()
	if s == "" || len(s) > 120 {
		t.Fatalf("summary %q", s)
	}
}
