package obs

// Fleet-level aggregation of the per-engine metrics plane (DESIGN §16).
// Each cell engine keeps its own Metrics; a multi-cell deployment
// (internal/fleet) snapshots every cell and merges them here into one
// JSON document for a single expvar endpoint: totals merged row by row
// through the metric table, and the per-cell snapshots preserved for
// drill-down.

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
	// Latency percentiles and SLO rows cannot be merged from per-cell
	// summaries, so they come from the fleet's own histograms, fed by
	// every cell's frame results. Queue gauges stay per cell.
	Totals  Snapshot   `json:"totals"`
	PerCell []CellSnap `json:"per_cell"`
}

// AggregateSnapshots merges per-cell snapshots into a FleetSnapshot.
// own is the fleet's own Metrics: its latency and stage histograms give
// Totals.Latency and Totals.SLO, and its incident count (the fleet's
// shed captures) adds to the cells'. With own nil those stay zero.
func AggregateSnapshots(cells []CellSnap, own *Metrics) FleetSnapshot {
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
	if own != nil {
		t.Latency = latencySnap(&own.Latency)
		t.SLO = own.SLORows()
		t.Incidents += own.Incidents.Load()
	}
	return fs
}
