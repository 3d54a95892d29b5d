package obs

import "sort"

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

// Timeline is the lane utilisation of a captured event window. Per-frame
// stage spans are not here: the manager's FrameRec accounts them live
// (FrameResult.Rec, Snapshot.SLO).
type Timeline struct {
	Workers []WorkerUtil // per lane, ordered by lane
}

// Reconstruct folds a Tracer.Snapshot into per-lane utilisation. Events
// need not be sorted.
func Reconstruct(events []Event) *Timeline {
	tl := &Timeline{}
	perLane := make(map[int][]Event)
	for i := range events {
		perLane[int(events[i].Lane)] = append(perLane[int(events[i].Lane)], events[i])
	}
	for laneID, evs := range perLane {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		w := WorkerUtil{Lane: laneID, Events: len(evs)}
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
		tl.Workers = append(tl.Workers, w)
	}
	sort.Slice(tl.Workers, func(i, j int) bool { return tl.Workers[i].Lane < tl.Workers[j].Lane })
	return tl
}
