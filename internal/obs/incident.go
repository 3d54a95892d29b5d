package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/queue"
)

// Anomaly flight recorder (DESIGN §12). When a frame goes bad — dropped,
// past its deadline, loss exceeding the FEC budget, or shed by a
// degrading fleet cell — the manager captures a post-mortem into a
// bounded ring: the frame's SLO attribution record plus the system
// gauges at capture time (queue depths, arena occupancy, fronthaul
// counter deltas). Healthy frames pay exactly one predicted-not-taken
// branch; captures are rare by construction, so the ring takes a plain
// mutex rather than growing lock-free machinery (a fleet has several
// writer goroutines, one per cell forwarder).

// IncidentReason classifies what made the frame bad.
type IncidentReason uint8

// Incident reasons.
const (
	// IncidentDrop: the engine abandoned the frame (timeout, slot
	// conflict, or packets that never arrived).
	IncidentDrop IncidentReason = iota
	// IncidentDeadline: the frame completed but past the on-air budget.
	IncidentDeadline
	// IncidentLoss: the frame was abandoned with fronthaul sequence gaps
	// in its window — loss beyond what the FEC parity budget covered.
	IncidentLoss
	// IncidentShed: a fleet cell entered load-shedding (Degraded) state.
	IncidentShed
)

// String implements fmt.Stringer.
func (r IncidentReason) String() string {
	switch r {
	case IncidentDrop:
		return "drop"
	case IncidentDeadline:
		return "deadline-miss"
	case IncidentLoss:
		return "fec-budget-exceeded"
	case IncidentShed:
		return "fleet-shed"
	}
	return fmt.Sprintf("IncidentReason(%d)", uint8(r))
}

// Incident is one captured post-mortem: everything needed to explain a
// bad frame after the fact without the quiescence-only trace rings.
type Incident struct {
	// Seq is the capture's monotone sequence number within its ring.
	Seq uint64
	// Cell is the capturing cell's id (0 for a single engine).
	Cell int
	// Reason classifies the anomaly.
	Reason IncidentReason
	// At is the capture's wall-clock time.
	At time.Time
	// Rec is the bad frame's SLO attribution record.
	Rec FrameRec
	// Queues/QueueMax snapshot the queue-depth gauges at capture.
	Queues   [NumGauges]int64
	QueueMax [NumGauges]int64
	// FreeStates is the frameState free-list occupancy at capture.
	FreeStates int64
	// Fronthaul counter deltas over the frame's lifetime: gaps/late
	// arrivals/FEC recoveries attributable to this frame's window.
	SeqGapsDelta      int64
	SeqLateDelta      int64
	FECRecoveredDelta int64
}

// IncidentRing is the bounded flight-recorder ring. Fixed capacity,
// preallocated, overwrites oldest; Record never allocates.
type IncidentRing struct {
	mu   sync.Mutex
	buf  []Incident
	next uint64 // total records ever; buf[(next-1) % len] is newest
}

// NewIncidentRing creates a ring holding the most recent capacity
// incidents (minimum 1).
func NewIncidentRing(capacity int) *IncidentRing {
	if capacity < 1 {
		capacity = 1
	}
	return &IncidentRing{buf: make([]Incident, capacity)}
}

// Record captures inc (by value), assigning its Seq and At.
func (r *IncidentRing) Record(inc Incident) {
	now := time.Now()
	r.mu.Lock()
	inc.Seq = r.next
	inc.At = now
	r.buf[r.next%uint64(len(r.buf))] = inc
	r.next++
	r.mu.Unlock()
}

// Count returns the total number of incidents ever recorded (not just
// those still retained).
func (r *IncidentRing) Count() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Snapshot copies the retained incidents, oldest first.
func (r *IncidentRing) Snapshot() []Incident {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	cap64 := uint64(len(r.buf))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	out := make([]Incident, 0, n-start)
	for i := start; i < n; i++ {
		out = append(out, r.buf[i%cap64])
	}
	return out
}

// IncidentDoc is the JSON-friendly rendering of an Incident served at
// /debug/incidents: stage names spelled out, durations in microseconds.
type IncidentDoc struct {
	Seq     uint64    `json:"seq"`
	Cell    int       `json:"cell"`
	Reason  string    `json:"reason"`
	At      time.Time `json:"at"`
	Frame   uint32    `json:"frame"`
	Dropped bool      `json:"dropped"`
	// LatencyUS is first-packet→done (0 for frames that never finished).
	LatencyUS         float64               `json:"latency_us"`
	Stages            []IncidentStageDoc    `json:"stages"`
	Queues            map[string]QueueGauge `json:"queues"`
	FreeStates        int64                 `json:"free_states"`
	SeqGapsDelta      int64                 `json:"seq_gaps_delta"`
	SeqLateDelta      int64                 `json:"seq_late_delta"`
	FECRecoveredDelta int64                 `json:"fec_recovered_delta"`
}

// IncidentStageDoc is one stage's attribution row in an IncidentDoc.
type IncidentStageDoc struct {
	Stage   string  `json:"stage"`
	Tasks   int32   `json:"tasks"`
	BusyUS  float64 `json:"busy_us"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SpanUS  float64 `json:"span_us"`
}

// Doc converts the incident for JSON serving.
func (inc *Incident) Doc() IncidentDoc {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	d := IncidentDoc{
		Seq:               inc.Seq,
		Cell:              inc.Cell,
		Reason:            inc.Reason.String(),
		At:                inc.At,
		Frame:             inc.Rec.Frame,
		Dropped:           inc.Rec.Dropped,
		LatencyUS:         us(inc.Rec.LatencyNS),
		Queues:            make(map[string]QueueGauge, NumGauges),
		FreeStates:        inc.FreeStates,
		SeqGapsDelta:      inc.SeqGapsDelta,
		SeqLateDelta:      inc.SeqLateDelta,
		FECRecoveredDelta: inc.FECRecoveredDelta,
	}
	for i := range inc.Rec.Stages {
		s := &inc.Rec.Stages[i]
		if s.Tasks == 0 {
			continue
		}
		d.Stages = append(d.Stages, IncidentStageDoc{
			Stage:   queue.TaskType(i).String(),
			Tasks:   s.Tasks,
			BusyUS:  us(s.BusyNS),
			StartUS: us(s.StartNS),
			EndUS:   us(s.EndNS),
			SpanUS:  us(s.SpanNS()),
		})
	}
	for i := 0; i < NumGauges; i++ {
		d.Queues[gaugeName(i)] = QueueGauge{
			Depth: inc.Queues[i], Max: inc.QueueMax[i],
		}
	}
	return d
}

// WriteIncidentsJSON serves a ring snapshot as a JSON array of
// IncidentDocs (the /debug/incidents payload), oldest first.
func WriteIncidentsJSON(w io.Writer, incidents []Incident) error {
	docs := make([]IncidentDoc, len(incidents))
	for i := range incidents {
		docs[i] = incidents[i].Doc()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(docs)
}

// WriteIncidentTrace renders one incident as a Chrome trace_event JSON
// array: one thread track of stage-span slices (the FrameRec's per-stage
// wall-clock extents) so the bad frame opens directly in chrome://tracing
// or Perfetto. Timestamps are the engine-epoch stamps, microseconds.
func WriteIncidentTrace(w io.Writer, inc *Incident) error {
	a := newTraceArray(w, fmt.Sprintf("agora incident %d (%s, cell %d, frame %d)",
		inc.Seq, inc.Reason, inc.Cell, inc.Rec.Frame))
	a.thread(0, "stages")
	for i := range inc.Rec.Stages {
		s := &inc.Rec.Stages[i]
		if s.Tasks == 0 {
			continue
		}
		a.slice(0, queue.TaskType(i).String(), "stage", s.StartNS, s.SpanNS(), map[string]any{
			"frame":   inc.Rec.Frame,
			"tasks":   s.Tasks,
			"busy_us": float64(s.BusyNS) / 1e3,
		})
	}
	if inc.Rec.DoneNS > inc.Rec.FirstPktNS {
		a.slice(1, fmt.Sprintf("frame %d (%s)", inc.Rec.Frame, inc.Reason), "frame",
			inc.Rec.FirstPktNS, inc.Rec.DoneNS-inc.Rec.FirstPktNS, map[string]any{"frame": inc.Rec.Frame})
	}
	return a.close()
}
