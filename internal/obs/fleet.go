package obs

// Fleet-level aggregation of the per-engine metrics plane (DESIGN §16).
// Each cell engine keeps its own Metrics; a multi-cell deployment
// (internal/fleet) snapshots every cell and merges them here into one
// JSON document for a single expvar endpoint: totals merged row by row
// through the metric table, and the per-cell snapshots preserved for
// drill-down.

import "repro/internal/stats"

// CellSnap is one cell's snapshot tagged with its id and lifecycle state.
type CellSnap struct {
	Cell  int    `json:"cell"`
	State string `json:"state"`
	Snapshot
}

// FleetSnapshot is the aggregated view a multi-cell deployment publishes
// on expvar.
type FleetSnapshot struct {
	Cells int `json:"cells"`
	// Shed counts router-refused packets; filled by the fleet (the
	// aggregation itself only sees per-cell snapshots).
	Shed int64 `json:"shed"`
	// Totals is every cell's snapshot merged row by row (sums, maxima,
	// ratios recomputed from the merged counters) plus per-task totals.
	// Latency percentiles and SLO rows come from the cells' histograms
	// merged bucket by bucket, so they are the percentiles of every
	// cell's frames together. Queue gauges stay per cell.
	Totals  Snapshot   `json:"totals"`
	PerCell []CellSnap `json:"per_cell"`
}

// AggregateSnapshots merges per-cell snapshots into a FleetSnapshot.
// ms are the cells' live Metrics: their latency and stage histograms,
// merged, give Totals.Latency and Totals.SLO. With ms nil those stay
// zero.
func AggregateSnapshots(cells []CellSnap, ms []*Metrics) FleetSnapshot {
	fs := FleetSnapshot{
		Cells:   len(cells),
		Totals:  Snapshot{Tasks: make(map[string]TaskSnap)},
		PerCell: cells,
	}
	t := &fs.Totals
	for i := range cells {
		t.merge(&cells[i].Snapshot)
	}
	if len(cells) > 0 {
		// Process-wide: every cell reads the same runtime and CPU.
		t.Kernels, t.GC = cells[0].Kernels, cells[0].GC
	}
	if len(ms) > 0 {
		var lat stats.Hist
		for _, m := range ms {
			lat.Merge(&m.Latency)
		}
		t.Latency = latencySnap(&lat)
		t.SLO = mergedSLORows(ms)
	}
	return fs
}

// mergedSLORows is SLORows over the bucket-wise merge of every ms's
// stage histograms. The cells are homogeneous, so ms[0]'s budget is
// each cell's.
func mergedSLORows(ms []*Metrics) []StageSLO {
	var rows []StageSLO
	for i := range ms[0].StageBusy {
		var busy, span stats.Hist
		for _, m := range ms {
			busy.Merge(&m.StageBusy[i])
			span.Merge(&m.StageSpan[i])
		}
		rows = appendSLORow(rows, i, &busy, &span, ms[0].FrameBudgetNS.Load())
	}
	return rows
}
