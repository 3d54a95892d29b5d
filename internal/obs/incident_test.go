package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/queue"
)

// testIncident builds an incident with a two-stage attribution record.
func testIncident(frame uint32) Incident {
	var rec FrameRec
	rec.Reset(frame)
	rec.Observe(queue.TaskFFT, 1000, 5000, 4)
	rec.Observe(queue.TaskDecode, 6000, 9000, 2)
	rec.FirstPktNS, rec.DoneNS, rec.LatencyNS = 500, 9500, 9000
	rec.Dropped = true
	inc := Incident{Reason: IncidentDrop, Rec: rec, FreeStates: 3, SeqGapsDelta: 2}
	inc.Queues[0] = 7
	inc.QueueMax[0] = 9
	return inc
}

// TestIncidentRingWraps overfills the ring and checks only the newest
// capacity incidents survive, oldest first, with monotone Seq.
func TestIncidentRingWraps(t *testing.T) {
	const capacity = 4
	r := NewIncidentRing(capacity)
	for f := 0; f < 10; f++ {
		r.Record(testIncident(uint32(f)))
	}
	if r.Count() != 10 {
		t.Fatalf("Count = %d, want 10", r.Count())
	}
	got := r.Snapshot()
	if len(got) != capacity {
		t.Fatalf("retained %d incidents, want %d", len(got), capacity)
	}
	for i, inc := range got {
		wantSeq := uint64(10 - capacity + i)
		if inc.Seq != wantSeq {
			t.Fatalf("incident %d Seq = %d, want %d", i, inc.Seq, wantSeq)
		}
		if inc.Rec.Frame != uint32(wantSeq) {
			t.Fatalf("incident %d frame = %d, want %d", i, inc.Rec.Frame, wantSeq)
		}
		if i > 0 && got[i-1].At.After(inc.At) {
			t.Fatal("incidents out of time order")
		}
	}
}

// TestIncidentRingMinCapacity pins the capacity floor of 1.
func TestIncidentRingMinCapacity(t *testing.T) {
	r := NewIncidentRing(0)
	r.Record(testIncident(1))
	r.Record(testIncident(2))
	got := r.Snapshot()
	if len(got) != 1 || got[0].Rec.Frame != 2 {
		t.Fatalf("min-capacity ring retained %+v, want just frame 2", got)
	}
}

// TestIncidentRingConcurrent hammers Record from several writers (the
// fleet's ring has one per cell manager) against Snapshot/Count readers —
// the -race contract.
func TestIncidentRingConcurrent(t *testing.T) {
	r := NewIncidentRing(8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for f := 0; f < 200; f++ {
				inc := testIncident(uint32(f))
				inc.Cell = w
				r.Record(inc)
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, inc := range r.Snapshot() {
					_ = inc.Doc()
				}
				_ = r.Count()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if r.Count() != 800 {
		t.Fatalf("Count = %d, want 800", r.Count())
	}
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("non-contiguous Seq in snapshot: %d then %d", snap[i-1].Seq, snap[i].Seq)
		}
	}
}

// TestIncidentDocAndJSON checks the /debug/incidents rendering: stage
// names, microsecond conversion, queue gauge map.
func TestIncidentDocAndJSON(t *testing.T) {
	r := NewIncidentRing(4)
	r.Record(testIncident(7))
	var buf bytes.Buffer
	if err := WriteIncidentsJSON(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var docs []IncidentDoc
	if err := json.Unmarshal(buf.Bytes(), &docs); err != nil {
		t.Fatalf("incidents JSON invalid: %v", err)
	}
	if len(docs) != 1 {
		t.Fatalf("got %d docs, want 1", len(docs))
	}
	d := docs[0]
	if d.Reason != "drop" || d.Frame != 7 || !d.Dropped {
		t.Fatalf("doc header wrong: %+v", d)
	}
	if d.LatencyUS != 9.0 {
		t.Fatalf("LatencyUS = %v, want 9", d.LatencyUS)
	}
	if len(d.Stages) != 2 {
		t.Fatalf("doc has %d stages, want 2: %+v", len(d.Stages), d.Stages)
	}
	byName := map[string]IncidentStageDoc{}
	for _, s := range d.Stages {
		byName[s.Stage] = s
	}
	fft := byName[queue.TaskFFT.String()]
	if fft.Tasks != 4 || fft.BusyUS != 4 || fft.StartUS != 1 || fft.EndUS != 5 || fft.SpanUS != 4 {
		t.Fatalf("FFT stage doc wrong: %+v", fft)
	}
	if g, ok := d.Queues[gaugeName(0)]; !ok || g.Depth != 7 || g.Max != 9 {
		t.Fatalf("queue gauges wrong: %+v", d.Queues)
	}
}

// TestIncidentTraceSchema validates the per-incident Chrome trace: a
// JSON array of trace_event objects with process/thread metadata and one
// complete ("X") slice per active stage plus the frame-bound track.
func TestIncidentTraceSchema(t *testing.T) {
	inc := testIncident(3)
	inc.Seq = 12
	var buf bytes.Buffer
	if err := WriteIncidentTrace(&buf, &inc); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("incident trace invalid JSON: %v\n%s", err, buf.String())
	}
	var haveProc, haveThread bool
	slices := map[string]map[string]any{}
	for _, ev := range evs {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		switch ph {
		case "M":
			if name == "process_name" {
				haveProc = true
				args := ev["args"].(map[string]any)
				pn, _ := args["name"].(string)
				if !strings.Contains(pn, "incident 12") || !strings.Contains(pn, "drop") || !strings.Contains(pn, "frame 3") {
					t.Fatalf("process_name missing identity fields: %q", pn)
				}
			}
			if name == "thread_name" {
				haveThread = true
			}
		case "X":
			// Every slice must carry the complete-event fields.
			for _, k := range []string{"ts", "dur", "pid", "tid"} {
				if _, ok := ev[k].(float64); !ok {
					t.Fatalf("slice %q missing numeric %q: %+v", name, k, ev)
				}
			}
			slices[name] = ev
		default:
			t.Fatalf("unexpected event phase %q: %+v", ph, ev)
		}
	}
	if !haveProc || !haveThread {
		t.Fatal("missing process_name/thread_name metadata")
	}
	fft := slices[queue.TaskFFT.String()]
	if fft == nil {
		t.Fatalf("no FFT stage slice (have %v)", slices)
	}
	if fft["ts"].(float64) != 1 || fft["dur"].(float64) != 4 {
		t.Fatalf("FFT slice ts/dur = %v/%v, want 1/4 µs", fft["ts"], fft["dur"])
	}
	if args := fft["args"].(map[string]any); args["busy_us"].(float64) != 4 {
		t.Fatalf("FFT slice busy_us = %v, want 4", args["busy_us"])
	}
	foundFrame := false
	for name := range slices {
		if strings.Contains(name, "frame 3") {
			foundFrame = true
		}
	}
	if !foundFrame {
		t.Fatalf("no frame-bound slice (have %v)", slices)
	}
}
