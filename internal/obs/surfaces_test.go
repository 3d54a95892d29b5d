package obs_test

import (
	"net/http/httptest"
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
	sum, err := harness.RunFleetUplink(smallCfg(), core.Options{}, 2, 2, 25, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	fs := &sum.Snapshot
	if fs.Totals.Frames == 0 || fs.Totals.Latency.Count != fs.Totals.Frames {
		t.Fatalf("fleet totals: frames %d, merged latency count %d",
			fs.Totals.Frames, fs.Totals.Latency.Count)
	}
	obs.CheckFleetTotals(t, fs)
	for i := range fs.PerCell {
		obs.CheckSurfaces(t, &fs.PerCell[i].Snapshot)
	}
}

// TestPromFleetLiveMidRun scrapes a running fleet's /metrics while its
// cells process frames and grammar-checks every scrape (run under -race
// by make race).
func TestPromFleetLiveMidRun(t *testing.T) {
	const cells, frames = 2, 4
	cfg := smallCfg()
	fl, err := fleet.New(fleet.Config{Cells: cells, Frame: cfg, TotalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start()
	defer fl.Stop()
	gens := make([]*workload.Generator, cells)
	for c := range gens {
		if gens[c], err = workload.NewGenerator(cfg, channel.Rayleigh, 25, 40+int64(c)); err != nil {
			t.Fatal(err)
		}
		gens[c].SetCell(uint8(c))
	}
	h := obs.PromFleetHandler(fl.Snapshot)
	scrape := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
	deadline := time.After(20 * time.Second)
	scrapes := 0
	for f := 0; f < frames; f++ {
		for _, g := range gens {
			if err := g.EmitFrame(uint32(f), fl.Route); err != nil {
				t.Fatal(err)
			}
		}
		for got := 0; got < cells; {
			select {
			case <-fl.Results():
				got++
			case <-deadline:
				t.Fatal("timeout")
			default:
				obs.CheckPromFormat(t, scrape())
				scrapes++
			}
		}
	}
	samples := obs.CheckPromFormat(t, scrape())
	if samples["agora_frames_total"] != cells || scrapes == 0 {
		t.Fatalf("final scrape: %d agora_frames_total samples after %d mid-run scrapes",
			samples["agora_frames_total"], scrapes)
	}
}
