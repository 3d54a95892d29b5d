package stats

import (
	"math"
	"sync"
	"testing"
	"time"
)

func rateAt(t *testing.T, series []RateSeries, name string, i int) float64 {
	t.Helper()
	for _, s := range series {
		if s.Name == name {
			if i >= len(s.Points) {
				t.Fatalf("series %s has %d points, want index %d", name, len(s.Points), i)
			}
			return s.Points[i].Rate
		}
	}
	t.Fatalf("series %s not found", name)
	return 0
}

// TestRateRingDeltas feeds cumulative counters at a known cadence and
// checks the per-second rates come out exact.
func TestRateRingDeltas(t *testing.T) {
	r := NewRateRing(8, []string{"frames", "drops"})
	t0 := time.Unix(1000, 0)
	r.Observe(t0, []float64{100, 0}) // baseline: no sample stored
	if got := r.Snapshot(); len(got[0].Points) != 0 {
		t.Fatalf("baseline produced %d points, want 0", len(got[0].Points))
	}
	r.Observe(t0.Add(time.Second), []float64{150, 2})
	r.Observe(t0.Add(3*time.Second), []float64{150, 6}) // 2 s interval
	snap := r.Snapshot()
	if got := rateAt(t, snap, "frames", 0); got != 50 {
		t.Fatalf("frames rate[0] = %v, want 50", got)
	}
	if got := rateAt(t, snap, "drops", 1); got != 2 { // 4 drops over 2 s
		t.Fatalf("drops rate[1] = %v, want 2", got)
	}
}

// TestRateRingWraps pushes more samples than capacity and checks the
// snapshot retains only the newest window, oldest first.
func TestRateRingWraps(t *testing.T) {
	const capacity = 4
	r := NewRateRing(capacity, []string{"c"})
	t0 := time.Unix(2000, 0)
	// Counter grows by i at step i, so rate at step i is exactly i.
	total := 0.0
	for i := 0; i <= 10; i++ {
		total += float64(i)
		r.Observe(t0.Add(time.Duration(i)*time.Second), []float64{total})
	}
	snap := r.Snapshot()
	pts := snap[0].Points
	if len(pts) != capacity {
		t.Fatalf("retained %d points, want %d", len(pts), capacity)
	}
	for i, p := range pts {
		want := float64(10 - capacity + 1 + i) // newest window is rates 7..10
		if p.Rate != want {
			t.Fatalf("point %d rate = %v, want %v", i, p.Rate, want)
		}
		if i > 0 && !pts[i-1].At.Before(p.At) {
			t.Fatalf("points out of order: %v then %v", pts[i-1].At, p.At)
		}
	}
}

// TestRateRingCounterReset checks a backwards-moving counter (process
// restart) re-baselines to rate 0 instead of going negative.
func TestRateRingCounterReset(t *testing.T) {
	r := NewRateRing(4, []string{"c"})
	t0 := time.Unix(3000, 0)
	r.Observe(t0, []float64{500})
	r.Observe(t0.Add(time.Second), []float64{10}) // reset
	r.Observe(t0.Add(2*time.Second), []float64{30})
	snap := r.Snapshot()
	if got := rateAt(t, snap, "c", 0); got != 0 {
		t.Fatalf("reset interval rate = %v, want 0", got)
	}
	if got := rateAt(t, snap, "c", 1); got != 20 {
		t.Fatalf("post-reset rate = %v, want 20", got)
	}
}

// TestRateRingConcurrentReaders hammers Snapshot from readers
// while a writer observes — the /debug/rates contract under -race.
func TestRateRingConcurrentReaders(t *testing.T) {
	r := NewRateRing(16, []string{"a", "b"})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					for _, s := range r.Snapshot() {
						for _, p := range s.Points {
							if math.IsNaN(p.Rate) {
								t.Error("NaN rate")
								return
							}
						}
					}
				}
			}
		}()
	}
	t0 := time.Unix(4000, 0)
	for i := 0; i < 200; i++ {
		r.Observe(t0.Add(time.Duration(i)*time.Millisecond), []float64{float64(i), float64(2 * i)})
	}
	close(stop)
	wg.Wait()
}
