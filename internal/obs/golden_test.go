package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The goldens pin every user-visible name the obs surfaces publish:
// Prometheus series, label sets and HELP text, the per-engine expvar
// JSON keys, and the /debug/rates series names. Regenerate with
//
//	go test ./internal/obs -run Golden -update
//
// and review the testdata diff: it is the change's whole visible effect.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden (rerun with -update to accept):\n--- got\n%s\n--- want\n%s",
			path, got, want)
	}
}

// testFleetSnapshot is TestPromFleetGrouping's 2-cell fixture.
func testFleetSnapshot() FleetSnapshot {
	cell := func(id int, frames int64) CellSnap {
		s := testSnapshot()
		s.Frames = frames
		return CellSnap{Cell: id, State: "active", Snapshot: s}
	}
	fs := AggregateSnapshots([]CellSnap{cell(0, 10), cell(1, 20)}, nil)
	fs.Totals.Latency = LatencySnap{Count: 30, MeanMS: 0.5, P50MS: 0.4, P99MS: 0.9, P999MS: 1.0, MaxMS: 1.1}
	fs.Totals.SLO = []StageSLO{{Stage: "Decode", Frames: 30, MeanShare: 0.25}}
	return fs
}

func TestGoldenPromSnapshot(t *testing.T) {
	s := testSnapshot()
	var buf bytes.Buffer
	if err := WritePromSnapshot(&buf, &s); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "prom_snapshot.txt", buf.Bytes())
}

func TestGoldenPromFleet(t *testing.T) {
	fs := testFleetSnapshot()
	var buf bytes.Buffer
	if err := WritePromFleet(&buf, &fs); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "prom_fleet.txt", buf.Bytes())
}

// jsonKeys flattens a decoded JSON document into sorted dotted key paths;
// array elements contribute their keys under "[]".
func jsonKeys(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			jsonKeys(p, e, out)
		}
	case []any:
		for _, e := range x {
			jsonKeys(prefix+"[]", e, out)
		}
	}
}

func TestGoldenSnapshotKeys(t *testing.T) {
	raw, err := json.Marshal(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	jsonKeys("", doc, set)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	checkGolden(t, "snapshot_keys.txt", []byte(strings.Join(keys, "\n")+"\n"))
}

func TestGoldenRateSeries(t *testing.T) {
	var names []string
	for _, s := range NewRateSampler(1, func() Snapshot { return Snapshot{} }).Snapshot() {
		names = append(names, s.Name)
	}
	checkGolden(t, "rate_series.txt", []byte(strings.Join(names, "\n")+"\n"))
}
