package obs

import (
	"sort"

	"repro/internal/queue"
)

// StageAgg aggregates the events of one task type within a frame: when the stage's first task started, when its
// last task ended, and how much worker time it consumed.
type StageAgg struct {
	Type   queue.TaskType
	Count  int   // messages executed (a batched message counts once)
	Tasks  int   // individual tasks (batch expanded)
	Start  int64 // ns since epoch, earliest task start
	End    int64 // ns since epoch, latest task end
	BusyNS int64 // Σ task durations (worker CPU time, overlaps allowed)
}

// SpanNS is the stage's wall-clock extent (Fig. 7's bar length).
func (s *StageAgg) SpanNS() int64 { return s.End - s.Start }

// FrameTimeline is one frame's reconstructed schedule: per-stage spans in
// execution order, exactly the rows of the paper's Figure 7 timeline.
type FrameTimeline struct {
	Frame  uint32
	Start  int64 // earliest task start
	End    int64 // latest task end
	Stages []StageAgg
}

// WorkerUtil summarizes one lane's activity over the capture window.
type WorkerUtil struct {
	Lane     int
	Events   int
	BusyNS   int64 // Σ event durations
	SpanNS   int64 // last end − first start
	MaxGapNS int64 // longest idle gap between consecutive events
}

// Utilization is BusyNS/SpanNS (0 with no span).
func (w *WorkerUtil) Utilization() float64 {
	if w.SpanNS <= 0 {
		return 0
	}
	return float64(w.BusyNS) / float64(w.SpanNS)
}

// Timeline is the full reconstruction of a captured event window.
type Timeline struct {
	Frames  []FrameTimeline // ordered by frame start
	Workers []WorkerUtil    // per lane
}

// Reconstruct builds per-frame stage breakdowns and worker utilization
// from a Snapshot. Events need not be sorted; incomplete frames at the
// window edges simply show the stages that were captured.
func Reconstruct(events []Event) *Timeline {
	tl := &Timeline{}
	if len(events) == 0 {
		return tl
	}
	frames := make(map[uint32]*FrameTimeline)
	frameStages := make(map[uint32]map[queue.TaskType]*StageAgg)
	workers := make(map[int]*WorkerUtil)
	perLane := make(map[int][]Event)
	for i := range events {
		ev := &events[i]
		ft, ok := frames[ev.Frame]
		if !ok {
			ft = &FrameTimeline{Frame: ev.Frame, Start: ev.Start, End: ev.End}
			frames[ev.Frame] = ft
			frameStages[ev.Frame] = make(map[queue.TaskType]*StageAgg)
		}
		ft.Start = min(ft.Start, ev.Start)
		ft.End = max(ft.End, ev.End)
		s, ok := frameStages[ev.Frame][ev.Type]
		if !ok {
			s = &StageAgg{Type: ev.Type, Start: ev.Start, End: ev.End}
			frameStages[ev.Frame][ev.Type] = s
		}
		s.Start = min(s.Start, ev.Start)
		s.End = max(s.End, ev.End)
		s.Count++
		s.Tasks += max(int(ev.Batch), 1)
		s.BusyNS += ev.End - ev.Start
		perLane[int(ev.Lane)] = append(perLane[int(ev.Lane)], *ev)
	}
	for id, ft := range frames {
		for _, s := range frameStages[id] {
			ft.Stages = append(ft.Stages, *s)
		}
		sort.Slice(ft.Stages, func(i, j int) bool { return ft.Stages[i].Start < ft.Stages[j].Start })
		tl.Frames = append(tl.Frames, *ft)
	}
	sort.Slice(tl.Frames, func(i, j int) bool { return tl.Frames[i].Start < tl.Frames[j].Start })
	for laneID, evs := range perLane {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		w := &WorkerUtil{Lane: laneID, Events: len(evs)}
		w.SpanNS = evs[len(evs)-1].End - evs[0].Start
		prevEnd := evs[0].Start
		for i := range evs {
			w.BusyNS += evs[i].End - evs[i].Start
			if gap := evs[i].Start - prevEnd; gap > w.MaxGapNS {
				w.MaxGapNS = gap
			}
			if evs[i].End > prevEnd {
				prevEnd = evs[i].End
			}
		}
		workers[laneID] = w
	}
	for _, w := range workers {
		tl.Workers = append(tl.Workers, *w)
	}
	sort.Slice(tl.Workers, func(i, j int) bool { return tl.Workers[i].Lane < tl.Workers[j].Lane })
	return tl
}
