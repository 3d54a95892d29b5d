package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"repro/internal/queue"
)

func TestTracerSnapshotOrder(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.Emit(Event{Start: 30, End: 40, Lane: 1, Type: queue.TaskZF, Frame: 1})
	tr.Emit(Event{Start: 10, End: 20, Lane: 0, Type: queue.TaskFFT, Frame: 1})
	tr.Emit(Event{Start: 50, End: 60, Lane: 0, Type: queue.TaskDemod, Frame: 1})
	evs := tr.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Fatalf("events not sorted: %v before %v", evs[i-1], evs[i])
		}
	}
	if evs[0].Type != queue.TaskFFT || evs[2].Type != queue.TaskDemod {
		t.Fatalf("unexpected order: %v", evs)
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Start: int64(i), End: int64(i + 1)})
	}
	evs := tr.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("ring should retain 4 events, got %d", len(evs))
	}
	if evs[0].Start != 6 || evs[3].Start != 9 {
		t.Fatalf("ring should keep the most recent window, got %v", evs)
	}
}

func TestTracerDisabled(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Start: 1, End: 2}) // must not panic
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if evs := tr.Snapshot(); evs != nil {
		t.Fatalf("nil tracer snapshot: %v", evs)
	}
}

func TestEmitZeroAlloc(t *testing.T) {
	tr := NewTracer(1, 64)
	ev := Event{Start: 1, End: 2, Frame: 3, Type: queue.TaskDecode}
	if n := testing.AllocsPerRun(1000, func() { tr.Emit(ev) }); n != 0 {
		t.Fatalf("enabled Emit allocates %v times per call", n)
	}
	var off *Tracer
	if n := testing.AllocsPerRun(1000, func() { off.Emit(ev) }); n != 0 {
		t.Fatalf("disabled Emit allocates %v times per call", n)
	}
	var m Metrics
	if n := testing.AllocsPerRun(1000, func() { m.ObserveFrame(12345) }); n != 0 {
		t.Fatalf("ObserveFrame allocates %v times per call", n)
	}
}

// BenchmarkEmit pins the per-event hot-path cost: one ring store plus
// two atomic cursor ops, 0 B/op. BenchmarkTracerOverhead (repo root)
// bounds the same cost end to end through the engine.
func BenchmarkEmit(b *testing.B) {
	tr := NewTracer(1, 1024)
	ev := Event{Start: 1, End: 2, Frame: 3, Type: queue.TaskDecode}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Start = int64(i)
		tr.Emit(ev)
	}
}

func TestReconstructTimeline(t *testing.T) {
	// Two frames, two workers: frame 1's FFT overlaps frame 0's decode
	// (inter-frame pipelining). Reconstruct folds them per lane only.
	evs := []Event{
		{Start: 0, End: 10, Frame: 0, Lane: 0, Type: queue.TaskPilotFFT, Batch: 2},
		{Start: 10, End: 20, Frame: 0, Lane: 0, Type: queue.TaskZF, Batch: 1},
		{Start: 12, End: 22, Frame: 0, Lane: 1, Type: queue.TaskFFT, Batch: 1},
		{Start: 22, End: 30, Frame: 0, Lane: 1, Type: queue.TaskDemod, Batch: 1},
		{Start: 30, End: 50, Frame: 0, Lane: 1, Type: queue.TaskDecode, Batch: 1},
		{Start: 35, End: 45, Frame: 1, Lane: 0, Type: queue.TaskPilotFFT, Batch: 1},
	}
	tl := Reconstruct(evs)
	if len(tl.Workers) != 2 {
		t.Fatalf("got %d workers, want 2", len(tl.Workers))
	}
	// Lane 0: busy 10+10+10=30 over span 45; max gap 15 (20→35).
	w0 := tl.Workers[0]
	if w0.Lane != 0 || w0.Events != 3 || w0.BusyNS != 30 || w0.SpanNS != 45 || w0.MaxGapNS != 15 {
		t.Fatalf("worker 0 util wrong: %+v", w0)
	}
	if u := w0.Utilization(); u < 0.66 || u > 0.67 {
		t.Fatalf("worker 0 utilization = %v, want 30/45", u)
	}
	// Lane 1: back to back from 12 to 50, busy 38, no gap.
	w1 := tl.Workers[1]
	if w1.Lane != 1 || w1.Events != 3 || w1.BusyNS != 38 || w1.SpanNS != 38 || w1.MaxGapNS != 0 {
		t.Fatalf("worker 1 util wrong: %+v", w1)
	}
	if len(Reconstruct(nil).Workers) != 0 {
		t.Fatal("empty capture produced lanes")
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	evs := []Event{
		{Start: 1000, End: 2000, Frame: 7, Symbol: 1, Lane: 0, Type: queue.TaskFFT, Batch: 4},
		{Start: 2000, End: 9000, Frame: 7, Symbol: 1, Lane: 1, Type: queue.TaskDecode, Batch: 1},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not a valid JSON array: %v\n%s", err, buf.String())
	}
	var tasks, frames, meta int
	for _, ev := range out {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			if ev["cat"] == "frame" {
				frames++
			} else {
				tasks++
			}
		}
	}
	if tasks != 2 || frames != 1 || meta < 3 {
		t.Fatalf("trace composition: %d tasks, %d frames, %d meta\n%s",
			tasks, frames, meta, buf.String())
	}
	// Empty input still yields a valid array.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("empty trace invalid: %v\n%s", err, buf.String())
	}
}

func TestMetricsSnapshot(t *testing.T) {
	var m Metrics
	m.FrameBudgetNS.Store(int64(time.Millisecond))
	m.ObserveFrame(int64(500 * time.Microsecond)) // within budget
	m.ObserveFrame(int64(3 * time.Millisecond))   // miss
	m.FramesDropped.Add(1)
	m.SampleQueue(int(queue.TaskDecode), 5)
	m.SampleQueue(int(queue.TaskDecode), 2)
	m.SampleQueue(GaugeRX, 9)
	m.Kernels = []KernelRow{{"decode", "avx2"}, {"fft", "generic"}}
	s := m.Snap()
	if s.Frames != 2 || s.Dropped != 1 || s.DeadlineMiss != 1 {
		t.Fatalf("counters wrong: %+v", s)
	}
	q := s.Queues[queue.TaskDecode.String()]
	if q.Depth != 2 || q.Max != 5 {
		t.Fatalf("decode gauge wrong: %+v", q)
	}
	if s.Queues["RX"].Depth != 9 {
		t.Fatalf("rx gauge wrong: %+v", s.Queues["RX"])
	}
	if s.Latency.MaxMS < 2.9 || s.Latency.MaxMS > 3.1 {
		t.Fatalf("latency max = %v ms", s.Latency.MaxMS)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
	// The kernel table round-trips under one "kernels" key.
	if want := `"kernels":[{"stage":"decode","kernel":"avx2"},{"stage":"fft","kernel":"generic"}]`; !bytes.Contains(raw, []byte(want)) {
		t.Fatalf("snapshot JSON lacks %s:\n%s", want, raw)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Kernels, m.Kernels) {
		t.Fatalf("kernels round-trip %v, want %v", back.Kernels, m.Kernels)
	}
}

func TestObserveDecode(t *testing.T) {
	var m Metrics
	m.ObserveDecode(1, true)
	m.ObserveDecode(3, true)
	m.ObserveDecode(8, false) // exhausted the budget
	s := m.Snap().Decode
	if s.Blocks != 3 || s.Iters != 12 || s.EarlyExits != 2 {
		t.Fatalf("decode counters wrong: %+v", s)
	}
	if s.MeanIters != 4 || s.MaxIters != 8 {
		t.Fatalf("decode summary wrong: %+v", s)
	}
	if s.EarlyExitRate < 0.66 || s.EarlyExitRate > 0.67 {
		t.Fatalf("early-exit rate %v", s.EarlyExitRate)
	}
}

// TestTaskAcc checks the per-type task fold behind Snapshot.Tasks: a
// batched message counts each of its tasks, busy time sums per type, a
// type that never ran has no entry, and a call allocates nothing.
func TestTaskAcc(t *testing.T) {
	var m Metrics
	for i := 0; i < 100; i++ {
		m.ObserveTask(queue.TaskFFT, 1, 2000)
	}
	m.ObserveTask(queue.TaskFFT, 50, 250000) // one message of 50 tasks
	m.ObserveTask(queue.TaskDecode, 3, 9000)
	tasks := m.Snap().Tasks
	if got, want := tasks[queue.TaskFFT.String()], (TaskSnap{Count: 150, MeanUS: 3, TotalMS: 0.45}); got != want {
		t.Fatalf("FFT = %+v, want %+v", got, want)
	}
	if got, want := tasks[queue.TaskDecode.String()], (TaskSnap{Count: 3, MeanUS: 3, TotalMS: 0.009}); got != want {
		t.Fatalf("Decode = %+v, want %+v", got, want)
	}
	if len(tasks) != 2 {
		t.Fatalf("types that never ran have entries: %+v", tasks)
	}
	if n := testing.AllocsPerRun(1000, func() { m.ObserveTask(queue.TaskZF, 2, 100) }); n != 0 {
		t.Fatalf("ObserveTask allocates %v times per call", n)
	}
}
