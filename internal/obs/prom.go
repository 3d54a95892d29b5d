package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Dependency-free Prometheus text exposition (format 0.0.4): the
// /metrics endpoint cmd/agora serves for both a single engine and a
// -cells N fleet. Both walk the metric table (table.go) over the same
// Snapshot / FleetSnapshot documents expvar publishes, so the surfaces
// can never drift. The format requires every series of a family under
// one HELP/TYPE header, so a fleet renders row by row, each row over
// every cell (per-cell series carry a cell="N" label).

// PromContentType is the exposition Content-Type header value.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promLabel is one name="value" pair.
type promLabel struct{ name, value string }

// promSample is one series sample within a family; suffix is "" or a
// summary's "_sum"/"_count".
type promSample struct {
	suffix string
	labels []promLabel
	value  float64
}

// promWriter streams exposition text one family at a time. Write
// errors stick in the bufio.Writer and surface from Flush.
type promWriter struct {
	bw      *bufio.Writer
	samples []promSample // the family being collected
}

// escapeLabelValue applies the exposition format's label escaping:
// backslash, double-quote, and newline.
var escapeLabelValue = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace

// family writes one metric family: the samples fill emits, under one
// HELP/TYPE header (no header when fill emits nothing). A summary's
// _sum and _count samples follow its quantiles.
func (pw *promWriter) family(name, typ, help string, fill func(emitFn)) {
	pw.samples = pw.samples[:0]
	fill(func(suffix string, v float64, labels ...promLabel) {
		pw.samples = append(pw.samples, promSample{suffix, labels, v})
	})
	if len(pw.samples) == 0 {
		return
	}
	fmt.Fprintf(pw.bw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, suffix := range [...]string{"", "_sum", "_count"} {
		for _, s := range pw.samples {
			if s.suffix != suffix {
				continue
			}
			labels := ""
			if len(s.labels) > 0 {
				parts := make([]string, len(s.labels))
				for i, l := range s.labels {
					parts[i] = fmt.Sprintf(`%s="%s"`, l.name, escapeLabelValue(l.value))
				}
				labels = "{" + strings.Join(parts, ",") + "}"
			}
			fmt.Fprintf(pw.bw, "%s%s%s %s\n", name, suffix, labels, formatValue(s.value))
		}
	}
}

// formatValue renders a sample value ('%g' matches the reference client's
// float rendering closely enough for scrapers).
func formatValue(v float64) string { return fmt.Sprintf("%g", v) }

// render emits a row's samples from s.
func (r *row) render(s *Snapshot, emit emitFn) {
	if r.samples != nil {
		r.samples(s, emit)
		return
	}
	emit("", r.value(s))
}

// WritePromSnapshot renders one engine snapshot in exposition format.
func WritePromSnapshot(w io.Writer, s *Snapshot) error {
	pw := promWriter{bw: bufio.NewWriter(w)}
	for i := range table {
		r := &table[i]
		pw.family(r.name, r.kind.promType(), r.help, func(emit emitFn) { r.render(s, emit) })
	}
	return pw.bw.Flush()
}

// WritePromFleet renders a fleet snapshot: fleet-level series, then
// every row over every cell under a cell="N" label. Process-wide rows
// are written once, unlabeled, from the first cell (all cells share
// the runtime and the CPU).
func WritePromFleet(w io.Writer, fs *FleetSnapshot) error {
	pw := promWriter{bw: bufio.NewWriter(w)}
	cellLabel := func(c *CellSnap) promLabel { return promLabel{"cell", strconv.Itoa(c.Cell)} }
	pw.family("agora_cells", "gauge", "Cells in the fleet.", func(emit emitFn) {
		emit("", float64(fs.Cells))
	})
	pw.family("agora_fleet_frame_latency_seconds", "summary", "Cross-cell frame latency (merged histogram).",
		func(emit emitFn) { latencySamples(&fs.Totals.Latency, emit) })
	pw.family("agora_fleet_stage_budget_share", "gauge", "Fleet-wide mean fraction of the frame budget by stage.",
		func(emit emitFn) {
			for _, row := range fs.Totals.SLO {
				emit("", row.MeanShare, promLabel{"stage", row.Stage})
			}
		})
	pw.family("agora_cell_state", "gauge", "Cell lifecycle state (value 1; state in the label).",
		func(emit emitFn) {
			for i := range fs.PerCell {
				emit("", 1, cellLabel(&fs.PerCell[i]), promLabel{"state", fs.PerCell[i].State})
			}
		})
	for i := range table {
		r := &table[i]
		pw.family(r.name, r.kind.promType(), r.help, func(emit emitFn) {
			if r.process {
				if len(fs.PerCell) > 0 {
					r.render(&fs.PerCell[0].Snapshot, emit)
				}
				return
			}
			for k := range fs.PerCell {
				cell := cellLabel(&fs.PerCell[k])
				r.render(&fs.PerCell[k].Snapshot, func(suffix string, v float64, labels ...promLabel) {
					emit(suffix, v, append([]promLabel{cell}, labels...)...)
				})
			}
		})
	}
	return pw.bw.Flush()
}

// PromHandler serves a single engine's /metrics from a snapshot source.
func PromHandler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		s := snap()
		_ = WritePromSnapshot(w, &s)
	})
}

// PromFleetHandler serves a fleet's /metrics from a snapshot source.
func PromFleetHandler(snap func() FleetSnapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		fs := snap()
		_ = WritePromFleet(w, &fs)
	})
}
