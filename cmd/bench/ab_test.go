package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// abManifest is a two-metric manifest in BENCHMARK.json's shape.
const abManifest = `{
  "workloads": [{"name": "dl"}, {"name": "ul"}],
  "end_to_end": [
    {"name": "frames_per_s", "unit": "frames/s", "better": "higher", "bound": 0.25},
    {"name": "frame_latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25}
  ]
}`

// canned returns the stdout of one benchmark run: a text line, then the
// JSON line the run ends with.
func canned(fps, p50, rss float64, failed int) []byte {
	return []byte(fmt.Sprintf("workload x: %.0f frames/s\n"+
		`{"correct":true,"attempted":1000,"failed":%d,"metrics":{"frames_per_s":{"value":%g,"unit":"frames/s"},"frame_latency_p50_ms":{"value":%g,"unit":"ms"},"peak_rss_mb":{"value":%g,"unit":"MB"}}}`+"\n",
		fps, failed, fps, p50, rss))
}

// TestABFold runs the verdict fold on canned result lines: a claim that
// holds, one that wins too few pairs, one judged on too few pairs, a row inside its bound, one inside
// it but resolved worse, one outside it, one whose parent spread is wider
// than its bound, the same spread where every change run reads better,
// and a side that fails more frames.
func TestABFold(t *testing.T) {
	var m manifest
	if err := json.Unmarshal([]byte(abManifest), &m); err != nil {
		t.Fatal(err)
	}
	parse := func(out []byte) runLine {
		r, err := parseRunLine(out)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	const n = 10
	parent := map[string][]runLine{}
	change := map[string][]runLine{}
	for i := 0; i < n; i++ {
		d := float64(i%3) * 0.01 // a spread of 2 % around each median
		// dl: p50 10 % lower in every pair; frames/s 5 % higher in 8 of
		// 10 pairs; RSS 5 % higher in every pair.
		fpsGain := 1.05
		if i < 2 {
			fpsGain = 0.99
		}
		parent["dl"] = append(parent["dl"], parse(canned(1000*(1+d), 0.6*(1+d), 20*(1+d), 0)))
		change["dl"] = append(change["dl"], parse(canned(1000*(1+d)*fpsGain, 0.54*(1+d), 21*(1+d), 0)))
		// ul: frames/s 40 % lower (out of bound); the parent's p50 and
		// RSS spread ±50 %, p50 alike on both sides (unresolved), RSS
		// below every parent run on the change; the change fails frames.
		spread := 0.5
		if i%2 == 0 {
			spread = 1.5
		}
		parent["ul"] = append(parent["ul"], parse(canned(2000, spread, 20*spread, 0)))
		change["ul"] = append(change["ul"], parse(canned(1200, spread, 9, 1)))
	}
	claims := map[string]bool{"dl:frame_latency_p50_ms": true, "dl:frames_per_s": true}
	rows, failed := foldAB(m, claims, []string{"dl", "ul"}, parent, change)
	if !failed {
		t.Fatal("fold passed with a failed claim and a row out of its bound")
	}
	want := map[string]struct {
		wins    int
		verdict string
	}{
		"dl frame_latency_p50_ms": {10, verdictHeld},
		"dl frames_per_s":         {8, verdictClaimFail},
		"dl peak_rss_mb":          {0, verdictWorse},
		"dl failed_share":         {0, verdictOK},
		"ul frames_per_s":         {0, verdictOutOfBound},
		"ul frame_latency_p50_ms": {0, verdictUnresolved},
		"ul peak_rss_mb":          {10, verdictOK},
		"ul failed_share":         {0, verdictMoreFailed},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		key := r.Workload + " " + r.Metric
		w, ok := want[key]
		if !ok {
			t.Fatalf("unexpected row %q", key)
		}
		if r.Wins != w.wins || r.Verdict != w.verdict || r.Pairs != n {
			t.Errorf("%s: %d/%d wins, %q; want %d/%d, %q", key, r.Wins, r.Pairs, r.Verdict, w.wins, n, w.verdict)
		}
	}
	var out strings.Builder
	printAB(&out, rows)
	if !strings.Contains(out.String(), "frame_latency_p50_ms *") {
		t.Errorf("claimed row not marked:\n%s", out.String())
	}

	// Without the failing rows the fold passes.
	delete(claims, "dl:frames_per_s")
	if _, failed := foldAB(m, claims, []string{"dl"}, parent, change); failed {
		t.Error("fold failed on a held claim and rows inside their bounds")
	}

	// The same claim on fewer than claimMinPairs pairs fails, though it
	// wins every one of them.
	few := map[string][]runLine{"dl": parent["dl"][:claimMinPairs-1]}
	rows, failed = foldAB(m, claims, []string{"dl"}, few, map[string][]runLine{"dl": change["dl"][:claimMinPairs-1]})
	if !failed {
		t.Error("fold passed a claim on too few pairs")
	}
	for _, r := range rows {
		if r.Metric == "frame_latency_p50_ms" && (r.Verdict != verdictFewPairs || r.Wins != r.Pairs) {
			t.Errorf("claim on %d pairs: %d wins, %q; want every pair won, %q", r.Pairs, r.Wins, r.Verdict, verdictFewPairs)
		}
	}
}

// TestABParseRunLine takes the last JSON line of a run's stdout and
// rejects output without one.
func TestABParseRunLine(t *testing.T) {
	out := append(canned(1, 2, 3, 0), canned(3, 4, 5, 5)...)
	r, err := parseRunLine(append(out, "done\n"...))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 5 || r.Metrics["frames_per_s"].Value != 3 {
		t.Fatalf("parsed %+v, want the last line's", r)
	}
	if _, err := parseRunLine([]byte("benchmark: exceeded its budget\n")); err == nil {
		t.Fatal("parsed a result from output without one")
	}
}
