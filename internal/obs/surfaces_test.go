package obs_test

import (
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/frame"
	"repro/internal/harness"
	"repro/internal/ldpc"
	"repro/internal/modulation"
	"repro/internal/obs"
	"repro/internal/workload"
)

func smallCfg() frame.Config {
	return frame.Config{
		Antennas:        8,
		Users:           2,
		OFDMSize:        256,
		DataSubcarriers: 128,
		Order:           modulation.QPSK,
		Rate:            ldpc.Rate89,
		DecodeIter:      8,
		Symbols:         "PUU",
		ZFGroupSize:     16,
		DemodBlockSize:  32,
	}
}

// TestSurfacesAgreeEngine runs a real engine over a lossy link with FEC
// parity, so the fronthaul rows are non-zero, and checks that every row
// reads the same in RunSummary.Metrics, its expvar JSON and its
// /metrics text.
func TestSurfacesAgreeEngine(t *testing.T) {
	sum, err := harness.RunUplinkLink(smallCfg(), core.Options{Workers: 2},
		channel.Rayleigh, 25, 8, false, 7, harness.Link{FECParity: 2, DropEvery: 9})
	if err != nil {
		t.Fatal(err)
	}
	m := &sum.Metrics
	if m.Frames == 0 || m.Fronthaul.SeqGaps == 0 || m.Fronthaul.FECRecovered == 0 || m.Decode.Blocks == 0 {
		t.Fatalf("lossy run left rows at zero: frames %d, fronthaul %+v, decode %+v",
			m.Frames, m.Fronthaul, m.Decode)
	}
	obs.CheckSurfaces(t, m)
}

// TestSurfacesAgreeFleet runs a real 2-cell fleet: each fleet total is
// the merge of its cells, and each cell's surfaces agree.
func TestSurfacesAgreeFleet(t *testing.T) {
	fl, err := fleet.New(fleet.Config{Cells: 2, Frame: smallCfg(), TotalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start()
	defer fl.Stop()
	runFleetFrames(t, fl, 6, 3, runtime.Gosched)
	fs := fl.Snapshot()
	if fs.Totals.Frames == 0 || fs.Totals.Latency.Count != fs.Totals.Frames {
		t.Fatalf("fleet totals: frames %d, merged latency count %d",
			fs.Totals.Frames, fs.Totals.Latency.Count)
	}
	obs.CheckFleetTotals(t, &fs)
	for i := range fs.PerCell {
		obs.CheckSurfaces(t, &fs.PerCell[i].Snapshot)
	}
}

// TestPromFleetLiveMidRun scrapes a running fleet's /metrics while its
// cells process frames and grammar-checks every scrape (run under -race
// by make race).
func TestPromFleetLiveMidRun(t *testing.T) {
	const cells, frames = 2, 4
	fl, err := fleet.New(fleet.Config{Cells: cells, Frame: smallCfg(), TotalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start()
	defer fl.Stop()
	h := obs.PromFleetHandler(fl.Snapshot)
	scrape := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
	scrapes := 0
	runFleetFrames(t, fl, frames, 40, func() {
		obs.CheckPromFormat(t, scrape())
		scrapes++
	})
	samples := obs.CheckPromFormat(t, scrape())
	if samples["agora_frames_total"] != cells || scrapes == 0 {
		t.Fatalf("final scrape: %d agora_frames_total samples after %d mid-run scrapes",
			samples["agora_frames_total"], scrapes)
	}
}

// runFleetFrames sends frames uplink frames through fl's router, one
// generator per cell seeded seed+cell, and waits for every cell's result
// of a frame before emitting the next. idle runs whenever no result is
// waiting.
func runFleetFrames(t *testing.T, fl *fleet.Fleet, frames int, seed int64, idle func()) {
	t.Helper()
	gens := make([]*workload.Generator, fl.Cells())
	for c := range gens {
		g, err := workload.NewGenerator(smallCfg(), channel.Rayleigh, 25, seed+int64(c))
		if err != nil {
			t.Fatal(err)
		}
		g.SetCell(uint8(c))
		gens[c] = g
	}
	deadline := time.After(20 * time.Second)
	for f := 0; f < frames; f++ {
		for _, g := range gens {
			if err := g.EmitFrame(uint32(f), fl.Route); err != nil {
				t.Fatal(err)
			}
		}
		for got := 0; got < len(gens); {
			select {
			case <-fl.Results():
				got++
			case <-deadline:
				t.Fatal("timeout")
			default:
				idle()
			}
		}
	}
}
