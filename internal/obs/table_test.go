package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestEveryRowOnEverySurface gives every row's live atomic a distinct
// value on two Metrics and follows each value to every surface: the
// Snap JSON, the /metrics text, the merged fleet totals and, for rows
// that name one, the /debug/rates series. A row wired to the wrong
// field, or missing from a surface, fails here.
func TestEveryRowOnEverySurface(t *testing.T) {
	var a, b Metrics
	for k := range table {
		if r := &table[k]; r.live != nil {
			r.live(&a).Store(int64(1_000_003 + 1000*k))
			r.live(&b).Store(int64(2_000_029 + 1000*k))
		}
	}
	sa, sb := a.Snap(), b.Snap()
	raw, err := json.Marshal(sa)
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := WritePromSnapshot(&prom, &sa); err != nil {
		t.Fatal(err)
	}
	fs := AggregateSnapshots([]CellSnap{{Snapshot: sa}, {Snapshot: sb}}, nil)

	// Two samples one second apart: the first reads zeros, so each
	// series' one point is the row's value (or ratio) in sa.
	reads := []Snapshot{{}, sa}
	sampler := NewRateSampler(4, func() Snapshot { s := reads[0]; reads = reads[1:]; return s })
	t0 := time.Unix(1000, 0)
	sampler.Sample(t0)
	sampler.Sample(t0.Add(time.Second))
	rates := map[string]float64{}
	for _, series := range sampler.Snapshot() {
		rates[series.Name] = series.Points[0].Rate
	}

	checked := 0
	for k := range table {
		r := &table[k]
		if r.live == nil && r.kind != ratio {
			continue
		}
		checked++
		var want, merged float64
		var enc []byte
		if r.kind == ratio {
			na, da := r.of(&sa)
			nb, db := r.of(&sb)
			want = float64(na) / float64(da)
			merged = float64(na+nb) / float64(da+db)
			if got := *r.f(&fs.Totals); got != merged {
				t.Errorf("%s: fleet total %v, want %v", r.name, got, merged)
			}
			enc, _ = json.Marshal(*r.f(&sa))
		} else {
			va, vb := int64(1_000_003+1000*k), int64(2_000_029+1000*k)
			if got := *r.i(&sa); got != va {
				t.Errorf("%s: Snap field %d, want its atomic's %d", r.name, got, va)
			}
			tot := va + vb
			if r.merge == mergeMax {
				tot = vb
			}
			if got := *r.i(&fs.Totals); got != tot {
				t.Errorf("%s: fleet total %d, want %d", r.name, got, tot)
			}
			want = float64(va)
			enc, _ = json.Marshal(va)
		}
		if !bytes.Contains(raw, append([]byte(":"), enc...)) {
			t.Errorf("%s: value %s missing from the snapshot JSON", r.name, enc)
		}
		if line := "\n" + r.name + " " + formatValue(want) + "\n"; !strings.Contains(prom.String(), line) {
			t.Errorf("%s: /metrics lacks %q", r.name, strings.TrimSpace(line))
		}
		if r.rate.name != "" && rates[r.rate.name] != want {
			t.Errorf("%s: rate %s = %v, want %v", r.name, r.rate.name, rates[r.rate.name], want)
		}
	}
	if checked < 16 {
		t.Fatalf("only %d live or ratio rows checked", checked)
	}
	if len(rates) != len(rateRows) {
		t.Fatalf("rate series %v, want one per rate row", rates)
	}
}

// parseProm reads exposition text into series → value, the series key
// being the text before the value (name plus its label block).
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// scalar reports whether a row is one Snapshot field.
func (r *row) scalar() bool { return r.i != nil || r.f != nil }

// checkSurfaces asserts that every scalar row reads the same in s, in
// s's expvar JSON decoded back, and in its /metrics text parsed back.
func checkSurfaces(t *testing.T, s *Snapshot) {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePromSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	checkPromFormat(t, buf.String())
	prom := parseProm(t, buf.String())
	for k := range table {
		r := &table[k]
		if !r.scalar() {
			continue
		}
		want := r.value(s)
		if got := r.value(&back); got != want {
			t.Errorf("%s: expvar JSON %v, snapshot %v", r.name, got, want)
		}
		if got, ok := prom[r.name]; !ok || got != want {
			t.Errorf("%s: /metrics %v (present %v), snapshot %v", r.name, got, ok, want)
		}
	}
}

// checkFleetTotals asserts that each scalar fleet total is the merge of
// its cells (sum, max, or the ratio of the summed counters) and that
// every cell's /metrics series reads its own snapshot.
func checkFleetTotals(t *testing.T, fs *FleetSnapshot) {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePromFleet(&buf, fs); err != nil {
		t.Fatal(err)
	}
	checkPromFormat(t, buf.String())
	prom := parseProm(t, buf.String())
	for k := range table {
		r := &table[k]
		if !r.scalar() {
			continue
		}
		var want, num, den float64
		for i := range fs.PerCell {
			c := &fs.PerCell[i].Snapshot
			v := r.value(c)
			switch {
			case r.kind == ratio:
				n, d := r.of(c)
				num, den = num+float64(n), den+float64(d)
			case r.merge == mergeMax:
				want = max(want, v)
			default:
				want += v
			}
			key := r.name + `{cell="` + strconv.Itoa(fs.PerCell[i].Cell) + `"}`
			if got, ok := prom[key]; !ok || got != v {
				t.Errorf("%s: /metrics %v (present %v), cell snapshot %v", key, got, ok, v)
			}
		}
		if r.kind == ratio && den > 0 {
			want = num / den
		}
		if got := r.value(&fs.Totals); got != want {
			t.Errorf("%s: fleet total %v, merge of cells %v", r.name, got, want)
		}
	}
}
