package main

import (
	"encoding/json"
	"os"
	"testing"
)

// manifest mirrors the parts of ../BENCHMARK.json the benchmark must
// agree with.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func sameMetrics(t *testing.T, kind string, got []manifestMetric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
	}
	for i, d := range want {
		if got[i] != (manifestMetric{d.name, d.unit, d.better}) {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark reports %+v", kind, i, got[i], d)
		}
	}
}

func TestManifestMatchesBenchmark(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "end_to_end", m.EndToEnd, endToEnd)
	sameMetrics(t, "per_layer", m.PerLayer, perLayer)
	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark runs %q: %q", i, m.Workloads[i], w.name, w.why)
		}
	}
}

// wantCounts derives, from the frame geometry alone, the per-frame counts
// the traced run must report exactly.
func wantCounts(w *spec) map[string]float64 {
	c := &w.cfg
	m, k := c.Antennas, c.Users
	rx := c.NumPilots() + c.NumUplink()
	order := int(c.Order)
	scUsed := (c.Code().N() + order - 1) / order
	return map[string]float64{
		"fronthaul.pkts_per_frame":      float64(rx * (m + w.fecParity)),
		"fft.calls_per_frame":           float64((rx + c.NumDownlink()) * m),
		"mat.zf_groups_per_frame":       float64(c.ZFGroups()),
		"ldpc.blocks_per_frame":         float64((c.NumUplink() + c.NumDownlink()) * k),
		"core.tasks_per_frame.pilotfft": float64(c.NumPilots() * m),
		"core.tasks_per_frame.zf":       float64(c.ZFGroups()),
		"core.tasks_per_frame.fft":      float64(c.NumUplink() * m),
		"core.tasks_per_frame.demod":    float64(c.NumUplink() * ((scUsed + c.DemodBlockSize - 1) / c.DemodBlockSize)),
		"core.tasks_per_frame.decode":   float64(c.NumUplink() * k),
		"core.tasks_per_frame.encode":   float64(c.NumDownlink() * k),
		"core.tasks_per_frame.precode":  float64(c.NumDownlink() * c.ZFGroups()),
		"core.tasks_per_frame.ifft":     float64(c.NumDownlink() * m),
	}
}

// TestSmoke runs every workload briefly in both modes: outputs must
// verify, every named metric must be reported, and the exact counts must
// equal what frame.Config predicts.
func TestSmoke(t *testing.T) {
	const seconds = 0.7
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if err := w.cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			res, err := runUntraced(&w, 1, seconds)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.attempted < 1 || res.failed != 0 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d\n%v", res.correct, res.attempted, res.failed, res.notes)
			}
			for _, d := range endToEnd {
				if v, ok := res.metrics[d.name]; !ok || v <= 0 {
					t.Errorf("untraced: %s = %v, want a positive value", d.name, v)
				}
			}
			res, err = runTraced(&w, 1, seconds)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct {
				t.Fatalf("traced: incorrect\n%v", res.notes)
			}
			for _, d := range perLayer {
				if _, ok := res.metrics[d.name]; !ok {
					t.Errorf("traced: %s not reported", d.name)
				}
			}
			if len(res.metrics) != len(perLayer) {
				t.Errorf("traced: %d metrics reported, %d named", len(res.metrics), len(perLayer))
			}
			for name, want := range wantCounts(&w) {
				if got := res.metrics[name]; got != want {
					t.Errorf("traced: %s = %v, frame.Config says %v", name, got, want)
				}
			}
			if _, err := os.Stat("out/trace-" + w.name + ".json"); err != nil {
				t.Errorf("span file: %v", err)
			}
			// A second seed must verify bit-exact too.
			r, _, err := setUp(&w, 7)
			if err != nil {
				t.Fatalf("seed 7: %v", err)
			}
			r.stop()
		})
	}
}

// TestSegmentRates pins the rate estimator: a segment's rate is a count
// over the exact time its completions took.
func TestSegmentRates(t *testing.T) {
	var done []int64
	for i := int64(0); i < 40; i++ {
		done = append(done, i*25e6) // one completion every 25 ms: 40 frames/s
	}
	rates := segmentRates(done, 900e6, 250e6)
	if len(rates) != 3 {
		t.Fatalf("got %d segments, want 3", len(rates))
	}
	for _, r := range rates {
		if r < 39.999 || r > 40.001 {
			t.Errorf("rate %v, want 40", r)
		}
	}
	if got := segmentRates(done, 100e6, 250e6); len(got) != 1 || got[0] < 39.999 || got[0] > 40.001 {
		t.Errorf("stretch shorter than a segment: %v, want one rate of 40", got)
	}
}
