package obs

import (
	"repro/internal/queue"
)

// Live SLO attribution (DESIGN §12). FrameRec is the one account of a
// frame's per-stage spans and busy time, kept while the engine is live;
// the quiescence-only trace rings add only lane utilisation and the
// Chrome view. The manager owns one FrameRec per in-flight frame
// (embedded in the manager's reused slot record, so the steady state
// allocates nothing) and folds every task completion's execution stamps
// into it — the completion messages already flow through the manager, so
// attribution costs a few adds per completion and no extra
// synchronization. On frame completion the record is folded into the
// always-live per-stage busy and span histograms (Metrics.StageBusy,
// Metrics.StageSpan) and copied into the FrameResult; on a bad frame it
// becomes the heart of the incident post-mortem (incident.go).

// StageRec accumulates one pipeline stage's work within a single frame.
type StageRec struct {
	// Tasks counts individual tasks (batch expanded).
	Tasks int32
	// BusyNS is the summed worker execution time (overlaps allowed).
	BusyNS int64
	// StartNS/EndNS bound the stage's wall-clock span, in nanoseconds
	// since the engine's epoch. Valid only when Tasks > 0.
	StartNS, EndNS int64
}

// SpanNS is the stage's wall-clock extent (0 when the stage never ran).
func (s *StageRec) SpanNS() int64 {
	if s.Tasks == 0 {
		return 0
	}
	return s.EndNS - s.StartNS
}

// FrameRec is one frame's per-stage budget attribution: who ate the
// frame's deadline budget, filled by the manager as completions arrive.
// All fields are plain memory owned by the manager goroutine; readers see
// a consistent copy via FrameResult.Rec or an Incident.
type FrameRec struct {
	Frame uint32
	// FirstPktNS/DoneNS bound the frame in epoch nanoseconds.
	FirstPktNS, DoneNS int64
	// LatencyNS mirrors FrameResult.Latency (0 for dropped frames).
	LatencyNS int64
	Dropped   bool
	Stages    [queue.NumTaskTypes]StageRec
}

// Reset clears the record for reuse by frame id (arena recycling).
func (r *FrameRec) Reset(id uint32) {
	*r = FrameRec{Frame: id}
}

// Observe folds one completed task message into the record: tasks
// executed, worker busy time, and the stage's span bounds.
func (r *FrameRec) Observe(t queue.TaskType, t0, t1 int64, tasks int) {
	s := &r.Stages[t]
	if s.Tasks == 0 || t0 < s.StartNS {
		s.StartNS = t0
	}
	if t1 > s.EndNS {
		s.EndNS = t1
	}
	s.Tasks += int32(tasks)
	s.BusyNS += t1 - t0
}

// StageSLO is one stage's live budget-attribution summary in a snapshot:
// the distributions of per-frame busy time and wall-clock span, and the
// mean busy share of the frame budget.
type StageSLO struct {
	Stage string `json:"stage"`
	// Frames is the number of completed frames that ran this stage.
	Frames int64 `json:"frames"`
	// Busy-time distribution across frames, microseconds.
	MeanBusyUS float64 `json:"mean_busy_us"`
	P50BusyUS  float64 `json:"p50_busy_us"`
	P99BusyUS  float64 `json:"p99_busy_us"`
	MaxBusyUS  float64 `json:"max_busy_us"`
	// Span distribution across frames, microseconds: each frame's first
	// task start to last task end in the stage (paper Fig. 7's bars).
	MeanSpanUS float64 `json:"mean_span_us"`
	P50SpanUS  float64 `json:"p50_span_us"`
	P99SpanUS  float64 `json:"p99_span_us"`
	// MeanShare is mean busy time over the frame budget (0 with no
	// budget): "which stage ate the budget", averaged over frames.
	MeanShare float64 `json:"mean_share"`
}
