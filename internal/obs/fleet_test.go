package obs

import (
	"math"
	"testing"
	"time"
)

func TestAggregateSnapshots(t *testing.T) {
	mk := func(cell int, frames, dropped int64, maxMS float64) CellSnap {
		return CellSnap{
			Cell:  cell,
			State: "active",
			Snapshot: Snapshot{
				Frames:       frames,
				Dropped:      dropped,
				DeadlineMiss: frames / 10,
				Latency:      LatencySnap{Count: frames, MaxMS: maxMS},
				Arena:        ArenaSnap{ZFCacheHits: 8, ZFCacheMisses: 2},
				Fronthaul:    FronthaulSnap{SeqGaps: 3, FECRecovered: 1},
				Decode:       DecodeSnap{Blocks: 50, Iters: 100, EarlyExits: 40},
				Tasks: map[string]TaskSnap{
					"ZF": {Count: 10, TotalMS: 5},
				},
			},
		}
	}
	fs := AggregateSnapshots([]CellSnap{
		mk(0, 100, 2, 9),
		mk(1, 300, 1, 12),
	}, nil)
	tot := &fs.Totals
	if fs.Cells != 2 || len(fs.PerCell) != 2 {
		t.Fatalf("cells: %d / %d", fs.Cells, len(fs.PerCell))
	}
	if tot.Frames != 400 || tot.Dropped != 3 || tot.DeadlineMiss != 40 {
		t.Fatalf("frame totals: %+v", tot)
	}
	if tot.Latency.MaxMS != 12 {
		t.Fatalf("max %v", tot.Latency.MaxMS)
	}
	if tot.Arena.ZFCacheHits != 16 || tot.Arena.ZFCacheMisses != 4 {
		t.Fatalf("zf cache totals: %+v", tot.Arena)
	}
	if math.Abs(tot.Arena.ZFCacheHitRate-0.8) > 1e-9 {
		t.Fatalf("hit rate %v", tot.Arena.ZFCacheHitRate)
	}
	if tot.Fronthaul.SeqGaps != 6 || tot.Fronthaul.FECRecovered != 2 {
		t.Fatalf("fronthaul totals: %+v", tot.Fronthaul)
	}
	if tot.Decode.Blocks != 100 || tot.Decode.Iters != 200 || tot.Decode.EarlyExits != 80 {
		t.Fatalf("decode totals: %+v", tot.Decode)
	}
	if math.Abs(tot.Decode.MeanIters-2.0) > 1e-9 || math.Abs(tot.Decode.EarlyExitRate-0.8) > 1e-9 {
		t.Fatalf("decode ratios %+v", tot.Decode)
	}
	zf := tot.Tasks["ZF"]
	if zf.Count != 20 || zf.TotalMS != 10 {
		t.Fatalf("task merge: %+v", zf)
	}
	// MeanUS recomputed from merged totals: 10 ms / 20 = 500 us.
	if math.Abs(zf.MeanUS-500) > 1e-9 {
		t.Fatalf("task mean %v", zf.MeanUS)
	}

	// The fleet's own Metrics supply what per-cell summaries cannot:
	// latency percentiles, SLO rows, and its shed incidents.
	var own Metrics
	own.ObserveFrame(int64(2 * time.Millisecond))
	own.ObserveFrame(int64(4 * time.Millisecond))
	own.Incidents.Add(1)
	fs = AggregateSnapshots([]CellSnap{mk(0, 100, 2, 9)}, &own)
	if fs.Totals.Latency.Count != 2 || fs.Totals.Latency.MaxMS < 3.9 {
		t.Fatalf("latency from the fleet histogram: %+v", fs.Totals.Latency)
	}
	if fs.Totals.Incidents != 1 {
		t.Fatalf("incidents %d, want the fleet's 1", fs.Totals.Incidents)
	}
}

func TestAggregateSnapshotsEmpty(t *testing.T) {
	fs := AggregateSnapshots(nil, nil)
	if fs.Cells != 0 || fs.Totals.Frames != 0 || fs.Totals.Latency.MeanMS != 0 {
		t.Fatalf("empty aggregate: %+v", fs)
	}
}
