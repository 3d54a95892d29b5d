package obs

import (
	"bufio"
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

// testSnapshot builds a synthetic snapshot with every section populated.
func testSnapshot() Snapshot {
	return Snapshot{
		Frames: 42, Dropped: 3, DeadlineMiss: 2, FrameBudgetMS: 1.0,
		Latency: LatencySnap{Count: 42, MeanMS: 0.5, P50MS: 0.4, P99MS: 0.9, P999MS: 0.95, MaxMS: 1.2},
		Queues: map[string]QueueGauge{
			"FFT": {Depth: 1, Max: 7},
			"RX":  {Depth: 0, Max: 12},
		},
		Tasks: map[string]TaskSnap{
			"Decode": {Count: 100, MeanUS: 30, TotalMS: 3},
			"ZF":     {Count: 10, MeanUS: 50, TotalMS: 0.5},
		},
		Arena:     ArenaSnap{FreeStates: 4, ZFCacheHits: 9, ZFCacheMisses: 1, ZFCacheHitRate: 0.9},
		Fronthaul: FronthaulSnap{SeqGaps: 5, SeqLate: 1, FECRecovered: 4, RxPkts: 1000},
		Decode:    DecodeSnap{Blocks: 100, Iters: 250, MeanIters: 2.5, MaxIters: 8, EarlyExits: 95, EarlyExitRate: 0.95},
		Kernels:   []KernelRow{{"decode", "avx2"}, {"fft", "generic"}, {"demod", "avx2"}},
		GC:        GCSnap{NumGC: 2, PauseTotalMS: 0.1},
		SLO: []StageSLO{
			{Stage: "Decode", Frames: 42, MeanBusyUS: 200, P50BusyUS: 190, P99BusyUS: 260, MaxBusyUS: 300, MeanShare: 0.2},
		},
		Incidents:           6,
		QueueMaxResetUnixMS: 1700000000000,
	}
}

// checkPromFormat walks exposition-format text and enforces the 0.0.4
// grammar this repo relies on: every sample belongs to a family whose
// HELP and TYPE headers appear exactly once, immediately before the
// family's contiguous sample block; a summary family's block also holds
// its <family>_sum and <family>_count samples.
func checkPromFormat(t *testing.T, text string) map[string]int {
	t.Helper()
	headerSeen := map[string]int{} // family -> HELP count
	samples := map[string]int{}    // family -> sample count
	current, currentType := "", ""
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			headerSeen[name]++
			if headerSeen[name] > 1 {
				t.Fatalf("line %d: family %s declared twice (samples must be grouped)", ln+1, name)
			}
			current = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if fields[0] != current {
				t.Fatalf("line %d: TYPE %s does not follow its HELP (current %s)", ln+1, fields[0], current)
			}
			currentType = fields[1]
			switch fields[1] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				t.Fatalf("line %d: invalid type %q", ln+1, fields[1])
			}
		case line == "":
			t.Fatalf("line %d: blank line in exposition output", ln+1)
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			if currentType == "summary" && (name == current+"_sum" || name == current+"_count") {
				name = current
			}
			if name != current {
				t.Fatalf("line %d: sample %s outside its family block (current %s)", ln+1, name, current)
			}
			if headerSeen[name] != 1 {
				t.Fatalf("line %d: sample %s has no HELP/TYPE header", ln+1, name)
			}
			samples[name]++
		}
	}
	return samples
}

// TestPromSnapshotFormat renders a fully populated snapshot and checks
// both the grammar and the presence of specific series.
func TestPromSnapshotFormat(t *testing.T) {
	s := testSnapshot()
	var buf bytes.Buffer
	if err := WritePromSnapshot(&buf, &s); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples := checkPromFormat(t, text)
	for _, want := range []string{
		"agora_frames_total 42\n",
		"agora_frames_dropped_total 3\n",
		"agora_incidents_total 6\n",
		"agora_frame_budget_seconds 0.001\n",
		`agora_frame_latency_seconds{quantile="0.99"} 0.0009` + "\n",
		"agora_frame_latency_seconds_count 42\n",
		`agora_queue_depth_max{queue="RX"} 12` + "\n",
		`agora_tasks_total{task="Decode"} 100` + "\n",
		`agora_stage_busy_seconds{stage="Decode",quantile="0.5"} 0.00019` + "\n",
		`agora_stage_budget_share{stage="Decode"} 0.2` + "\n",
		"agora_decode_blocks_total 100\n",
		"agora_decode_iterations_total 250\n",
		"agora_decode_iterations_mean 2.5\n",
		"agora_decode_early_exit_rate 0.95\n",
		"# HELP agora_decode_early_exits_total Blocks whose syndrome check converged before the iteration budget, including blocks that arrived as codewords (0 iterations).\n",
		"# HELP agora_decode_iterations_mean Mean BP iterations per decoded block; a block that arrived as a codeword counts 0.\n",
		`agora_kernel_info{stage="decode",kernel="avx2"} 1` + "\n",
		`agora_kernel_info{stage="fft",kernel="generic"} 1` + "\n",
		`agora_kernel_info{stage="demod",kernel="avx2"} 1` + "\n",
		"agora_seq_gaps_total 5\n",
		"agora_gc_cycles_total 2\n",
		"agora_queue_max_reset_timestamp_seconds 1.7e+09\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
	// Two queues -> two samples under one agora_queue_depth family.
	if samples["agora_queue_depth"] != 2 {
		t.Fatalf("agora_queue_depth samples = %d, want 2", samples["agora_queue_depth"])
	}
	// Three quantiles plus _sum and _count, all in the summary's block.
	if samples["agora_frame_latency_seconds"] != 5 {
		t.Fatalf("latency summary samples = %d, want 5", samples["agora_frame_latency_seconds"])
	}
	if strings.Contains(text, "# TYPE agora_frame_latency_seconds_sum") {
		t.Fatal("summary _sum declared as a family of its own")
	}
	// One kernel family, one sample per stage.
	if samples["agora_kernel_info"] != 3 {
		t.Fatalf("agora_kernel_info samples = %d, want 3", samples["agora_kernel_info"])
	}
}

// TestPromLabelEscaping pins the exposition escaping rules for label
// values: backslash, double quote, newline.
func TestPromLabelEscaping(t *testing.T) {
	cases := map[string]string{
		`plain`:        `plain`,
		`back\slash`:   `back\\slash`,
		`quo"te`:       `quo\"te`,
		"new\nline":    `new\nline`,
		"all\\\"\nmix": `all\\\"\nmix`,
	}
	for in, want := range cases {
		if got := escapeLabelValue(in); got != want {
			t.Fatalf("escapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
	// End to end: a hostile label value survives rendering.
	var buf bytes.Buffer
	pw := promWriter{bw: bufio.NewWriter(&buf)}
	pw.family("x_total", "counter", "Test.", func(emit emitFn) {
		emit("", 1, promLabel{"k", "a\"b\\c\nd"})
	})
	if err := pw.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `x_total{k="a\"b\\c\nd"} 1` + "\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("rendered %q, want it to contain %q", buf.String(), want)
	}
}

// TestPromFleetGrouping renders a 2-cell fleet and checks per-cell
// series interleave inside one family block instead of repeating
// headers, that cell state and fleet-level series are present, and that
// the process-wide GC and kernel series appear once (unlabeled by cell).
func TestPromFleetGrouping(t *testing.T) {
	fs := testFleetSnapshot()
	var buf bytes.Buffer
	if err := WritePromFleet(&buf, &fs); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples := checkPromFormat(t, text)
	for _, want := range []string{
		"agora_cells 2\n",
		`agora_fleet_frame_latency_seconds{quantile="0.5"} 0.0004` + "\n",
		`agora_fleet_stage_budget_share{stage="Decode"} 0.25` + "\n",
		`agora_cell_state{cell="0",state="active"} 1` + "\n",
		`agora_frames_total{cell="0"} 10` + "\n",
		`agora_frames_total{cell="1"} 20` + "\n",
		"agora_gc_cycles_total 2\n",
		`agora_kernel_info{stage="decode",kernel="avx2"} 1` + "\n",
		`agora_kernel_info{stage="fft",kernel="generic"} 1` + "\n",
		`agora_kernel_info{stage="demod",kernel="avx2"} 1` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("fleet output missing %q:\n%s", want, text)
		}
	}
	if samples["agora_kernel_info"] != 3 {
		t.Fatalf("agora_kernel_info samples = %d, want 3 (process-wide, one per stage)", samples["agora_kernel_info"])
	}
	if samples["agora_frames_total"] != 2 {
		t.Fatalf("agora_frames_total samples = %d, want one per cell", samples["agora_frames_total"])
	}
	if samples["agora_gc_cycles_total"] != 1 {
		t.Fatalf("agora_gc_cycles_total samples = %d, want exactly 1 (process-wide)", samples["agora_gc_cycles_total"])
	}
	if strings.Contains(text, `agora_gc_cycles_total{`) {
		t.Fatal("GC series must not carry a cell label")
	}
	if strings.Contains(text, `agora_kernel_info{cell=`) {
		t.Fatal("kernel series must not carry a cell label")
	}
}

// TestPromHandler checks the HTTP wrapper: content type and body.
func TestPromHandler(t *testing.T) {
	h := PromHandler(func() Snapshot { return testSnapshot() })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != PromContentType {
		t.Fatalf("content type %q, want %q", ct, PromContentType)
	}
	if !strings.Contains(rec.Body.String(), "agora_frames_total 42") {
		t.Fatal("handler body missing agora_frames_total")
	}
	checkPromFormat(t, rec.Body.String())
}
