package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event export: the captured window rendered in the JSON
// array format chrome://tracing and Perfetto load directly. Each worker
// lane becomes a thread track of complete ("ph":"X") task slices, and a
// synthetic "frames" track overlays one slice per frame so intra- and
// inter-frame pipelining (paper Fig. 7) is visible at a glance.

// traceEvent is one trace_event JSON record (timestamps in microseconds).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

const tracePID = 1

// traceArray streams one process's trace events as a JSON array. Errors
// stick (a marshal error, or the bufio.Writer's own) and surface from
// close.
type traceArray struct {
	bw  *bufio.Writer
	sep string
	err error
}

// newTraceArray opens the array with the process_name record.
func newTraceArray(w io.Writer, process string) *traceArray {
	a := &traceArray{bw: bufio.NewWriter(w), sep: "[\n"}
	a.emit(traceEvent{Name: "process_name", Ph: "M", PID: tracePID, Args: map[string]any{"name": process}})
	return a
}

func (a *traceArray) emit(ev traceEvent) {
	b, err := json.Marshal(ev)
	if err != nil {
		a.err = err
		return
	}
	a.bw.WriteString(a.sep)
	a.bw.Write(b)
	a.sep = ",\n"
}

// thread names track tid.
func (a *traceArray) thread(tid int, name string) {
	a.emit(traceEvent{Name: "thread_name", Ph: "M", PID: tracePID, TID: tid, Args: map[string]any{"name": name}})
}

// slice adds a complete event on track tid; times are engine-epoch ns.
func (a *traceArray) slice(tid int, name, cat string, startNS, durNS int64, args map[string]any) {
	a.emit(traceEvent{
		Name: name, Cat: cat, Ph: "X", PID: tracePID, TID: tid,
		TS: float64(startNS) / 1e3, Dur: float64(durNS) / 1e3, Args: args,
	})
}

func (a *traceArray) close() error {
	a.bw.WriteString("\n]\n")
	if err := a.bw.Flush(); err != nil {
		return err
	}
	return a.err
}

// WriteChromeTrace renders events (a Tracer.Snapshot) as a Chrome
// trace_event JSON array.
func WriteChromeTrace(w io.Writer, events []Event) error {
	a := newTraceArray(w, "agora")
	lanes := 0
	for i := range events {
		lanes = max(lanes, int(events[i].Lane)+1)
	}
	for l := 0; l < lanes; l++ {
		a.thread(l, fmt.Sprintf("worker %d", l))
	}
	frameTID := lanes + 1
	a.thread(frameTID, "frames")
	// The frames track spans each frame's earliest task start to its
	// latest task end.
	type bounds struct {
		frame      uint32
		start, end int64
	}
	var frames []bounds
	at := make(map[uint32]int)
	for i := range events {
		ev := &events[i]
		a.slice(int(ev.Lane), ev.Type.String(), "task", ev.Start, ev.End-ev.Start, map[string]any{
			"frame":  ev.Frame,
			"symbol": ev.Symbol,
			"task":   ev.TaskIdx,
			"batch":  ev.Batch,
		})
		j, ok := at[ev.Frame]
		if !ok {
			j = len(frames)
			at[ev.Frame] = j
			frames = append(frames, bounds{ev.Frame, ev.Start, ev.End})
		}
		frames[j].start = min(frames[j].start, ev.Start)
		frames[j].end = max(frames[j].end, ev.End)
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i].start < frames[j].start })
	for _, f := range frames {
		a.slice(frameTID, fmt.Sprintf("frame %d", f.frame), "frame", f.start, f.end-f.start,
			map[string]any{"frame": f.frame})
	}
	return a.close()
}
