package core

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/fronthaul"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/workload"
)

// TestSLOAttributionMatchesTimeline pins the equivalence at the heart of
// DESIGN §12: the live FrameRec the manager assembles from completion
// stamps and the trace events the workers emit describe the SAME
// schedule. Both carry the identical worker stamps (Msg.T0/T1,
// nanoseconds since the shared engine epoch), so the events folded per
// frame and per stage here must give the record's task counts, span
// bounds and busy sums exactly — not approximately. The live SLO rows'
// span distribution must then be consistent with those records.
func TestSLOAttributionMatchesTimeline(t *testing.T) {
	cfg := smallCfg()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 25, 17)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, Options{Workers: 3}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	rru := ring.Side(0)
	const nFrames = 3
	recs := make(map[uint32]obs.FrameRec, nFrames)
	for f := 0; f < nFrames; f++ {
		if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-eng.Results():
			if r.Dropped {
				t.Fatalf("frame %d dropped", r.Frame)
			}
			recs[r.Frame] = r.Rec
		case <-time.After(20 * time.Second):
			t.Fatal("timeout")
		}
	}
	eng.Stop()

	// Fold the trace events the way the manager folds completions.
	traced := map[uint32]*obs.FrameRec{}
	for _, ev := range eng.TraceEvents() {
		fr, ok := traced[ev.Frame]
		if !ok {
			fr = &obs.FrameRec{Frame: ev.Frame}
			traced[ev.Frame] = fr
		}
		sr := &fr.Stages[ev.Type]
		if sr.Tasks == 0 || ev.Start < sr.StartNS {
			sr.StartNS = ev.Start
		}
		sr.EndNS = max(sr.EndNS, ev.End)
		sr.Tasks += int32(max(ev.Batch, 1))
		sr.BusyNS += ev.End - ev.Start
	}
	if len(traced) != nFrames {
		t.Fatalf("trace has %d frames, want %d", len(traced), nFrames)
	}
	maxSpan, sumSpan := map[string]int64{}, map[string]int64{}
	for id, fr := range traced {
		rec, ok := recs[id]
		if !ok {
			t.Fatalf("no FrameRec for frame %d", id)
		}
		for ty := range rec.Stages {
			sr, ev := &rec.Stages[ty], &fr.Stages[ty]
			name := queue.TaskType(ty).String()
			if sr.Tasks != ev.Tasks {
				t.Fatalf("frame %d %s: rec tasks %d, trace %d", id, name, sr.Tasks, ev.Tasks)
			}
			if sr.Tasks == 0 {
				continue
			}
			if sr.StartNS != ev.StartNS || sr.EndNS != ev.EndNS {
				t.Fatalf("frame %d %s: rec span [%d,%d], trace [%d,%d]",
					id, name, sr.StartNS, sr.EndNS, ev.StartNS, ev.EndNS)
			}
			if sr.BusyNS != ev.BusyNS {
				t.Fatalf("frame %d %s: rec busy %d, trace %d", id, name, sr.BusyNS, ev.BusyNS)
			}
			maxSpan[name] = max(maxSpan[name], sr.SpanNS())
			sumSpan[name] += sr.SpanNS()
		}
	}
	// The live histograms saw every completed frame, and their span rows
	// lie within the records' spans (the histogram mean is exact).
	rows := eng.Metrics().SLORows()
	if len(rows) == 0 {
		t.Fatal("no SLO rows after a recorded run")
	}
	for _, row := range rows {
		if row.Frames != nFrames {
			t.Fatalf("SLO row %s counted %d frames, want %d", row.Stage, row.Frames, nFrames)
		}
		if row.MeanBusyUS <= 0 || row.MaxBusyUS < row.P50BusyUS || row.MeanShare <= 0 {
			t.Fatalf("SLO row %s inconsistent: %+v", row.Stage, row)
		}
		largest := float64(maxSpan[row.Stage]) / 1e3
		mean := float64(sumSpan[row.Stage]/nFrames) / 1e3
		if row.MeanSpanUS <= 0 || row.MeanSpanUS != mean || row.P50SpanUS <= 0 ||
			row.P50SpanUS > row.P99SpanUS || row.P99SpanUS > largest {
			t.Fatalf("SLO row %s spans inconsistent with the records (largest %.3f µs): %+v",
				row.Stage, largest, row)
		}
	}
}

// TestRecorderDisabled checks the DisableRecorder ablation: no records,
// no histograms, no incidents, nil-safe accessors.
func TestRecorderDisabled(t *testing.T) {
	cfg := smallCfg()
	results := runFramesObs(t, cfg, Options{Workers: 2, DisableRecorder: true}, 2)
	eng := results.eng
	if got := eng.Incidents(); got != nil {
		t.Fatalf("disabled recorder returned incidents: %+v", got)
	}
	if eng.IncidentCount() != 0 {
		t.Fatal("disabled recorder counted incidents")
	}
	if rows := eng.Metrics().SLORows(); len(rows) != 0 {
		t.Fatalf("disabled recorder produced SLO rows: %+v", rows)
	}
}

// TestDeadlineMissIncident injects an impossible frame budget (1 ns) and
// checks the flight recorder captures the completed-but-late frame with
// the deadline-miss reason and the frame's own attribution record.
func TestDeadlineMissIncident(t *testing.T) {
	cfg := smallCfg()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 25, 23)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, Options{Workers: 2}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Metrics().FrameBudgetNS.Store(1) // every completion misses
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	if err := gen.EmitFrame(0, rru.Send); err != nil {
		t.Fatal(err)
	}
	var res FrameResult
	select {
	case res = <-eng.Results():
	case <-time.After(20 * time.Second):
		t.Fatal("timeout")
	}
	if res.Dropped {
		t.Fatal("frame dropped, wanted a completed-but-late frame")
	}
	incs := eng.Incidents()
	if len(incs) != 1 {
		t.Fatalf("got %d incidents, want 1", len(incs))
	}
	inc := incs[0]
	if inc.Reason != obs.IncidentDeadline {
		t.Fatalf("reason = %v, want deadline-miss", inc.Reason)
	}
	if inc.Rec != res.Rec {
		t.Fatalf("incident record differs from the frame's result record:\ninc %+v\nres %+v",
			inc.Rec, res.Rec)
	}
	if inc.Rec.LatencyNS <= 1 || inc.Rec.Dropped {
		t.Fatalf("incident record implausible: %+v", inc.Rec)
	}
	if eng.Metrics().Incidents.Load() != 1 || eng.MetricsSnapshot().Incidents != 1 {
		t.Fatal("incident counter not mirrored into metrics")
	}
}

// TestLossIncident drops one antenna's packets so the frame is reaped
// with fronthaul sequence gaps in its window: the recorder must classify
// it as fec-budget-exceeded and report the gap delta.
func TestLossIncident(t *testing.T) {
	cfg := smallCfg()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 25, 29)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, Options{Workers: 2, FrameTimeout: 300 * time.Millisecond}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	// Lose antenna 3's data symbols but keep its pilot, so the frame is
	// admitted (pilot complete) and then starves mid-flight — the
	// live-frame reap path, with sequence gaps inside the frame window.
	err = gen.EmitFrame(0, func(pkt []byte) error {
		var h fronthaul.Header
		_ = h.Decode(pkt)
		if h.Antenna == 3 && h.Symbol > 0 {
			return nil
		}
		return rru.Send(pkt)
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-eng.Results():
		if !res.Dropped {
			t.Fatalf("expected a dropped frame, got %+v", res)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("lossy frame never reaped")
	}
	incs := eng.Incidents()
	if len(incs) != 1 {
		t.Fatalf("got %d incidents, want 1", len(incs))
	}
	inc := incs[0]
	if inc.Reason != obs.IncidentLoss {
		t.Fatalf("reason = %v, want fec-budget-exceeded", inc.Reason)
	}
	if !inc.Rec.Dropped || inc.Rec.Frame != 0 {
		t.Fatalf("incident record wrong: %+v", inc.Rec)
	}
	if inc.SeqGapsDelta <= 0 {
		t.Fatalf("SeqGapsDelta = %d, want > 0 (an antenna went missing)", inc.SeqGapsDelta)
	}
}

// TestPromLiveMidRun scrapes the Prometheus handler concurrently with a
// running engine — the mid-run /metrics contract under -race.
func TestPromLiveMidRun(t *testing.T) {
	cfg := smallCfg()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 25, 31)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, Options{Workers: 3}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	h := obs.PromHandler(eng.MetricsSnapshot)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				body := rec.Body.String()
				if !strings.HasPrefix(body, "# HELP ") ||
					!strings.Contains(body, "agora_frames_total") {
					t.Error("mid-run scrape malformed")
					return
				}
			}
		}
	}()
	rru := ring.Side(0)
	const nFrames = 5
	for f := 0; f < nFrames; f++ {
		if err := gen.EmitFrame(uint32(f), rru.Send); err != nil {
			t.Fatal(err)
		}
		select {
		case <-eng.Results():
		case <-time.After(20 * time.Second):
			t.Fatal("timeout")
		}
	}
	close(stop)
	wg.Wait()
	eng.Stop()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "agora_frames_total 5") {
		t.Fatalf("final scrape missing frame count:\n%s", rec.Body.String())
	}
}
