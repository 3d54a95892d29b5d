package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

const (
	verifyFrames = 8
	warmFrames   = 8
	// setupReps: a run sets up this many times, measures each rig it built
	// for 1/setupReps of -seconds, and stops it. setup_s is the median
	// set-up; the other metrics pool the stretches of all the rigs, so no
	// single engine instance, and no single second of a host whose speed
	// changes by the second, decides a run.
	setupReps = 5
	// The issue's phase plan is 6 s solo + 8 s pipelined; -seconds scales
	// both in that proportion.
	soloShare = 6.0 / 14.0
	// segment is the slice a stretch is cut into for rate medians.
	segment = 200 * time.Millisecond
)

// result is what one run reports; the last line of standard output is
// its JSON form (see main.go).
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	notes             []string // human-readable lines printed above the JSON
}

func (res *result) notef(format string, a ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, a...))
}

// setUp builds the pools, proves the outputs right on a KeepBits rig,
// and returns a warm measurement rig. It is everything a run pays before
// the first timed frame.
func setUp(w *spec, seed int64) (*rig, []*cellPool, error) {
	pools := make([]*cellPool, w.cells)
	for c := range pools {
		p, err := buildPool(w, c, seed)
		if err != nil {
			return nil, nil, err
		}
		pools[c] = p
	}
	vr, err := newRig(w, pools, seed, true, false)
	if err != nil {
		return nil, nil, err
	}
	err = vr.verify(verifyFrames)
	vr.stop()
	if err != nil {
		return nil, nil, err
	}
	r, err := newRig(w, pools, seed, false, false)
	if err != nil {
		return nil, nil, err
	}
	if err := r.warm(warmFrames); err != nil {
		r.stop()
		return nil, nil, err
	}
	return r, pools, nil
}

// warm runs n unrecorded frames per cell, one in flight at a time.
func (r *rig) warm(n int) error {
	ph := r.newPhase(0)
	for i := 0; i < n*len(r.lanes); i++ {
		c := i % len(r.lanes)
		if _, err := r.lanes[c].sendFrame(&ph.rc); err != nil {
			return err
		}
		cell, res, ok := r.recv(resultTimeout)
		if !ok {
			return fmt.Errorf("warm-up: no result within %v", resultTimeout)
		}
		r.account(ph, cell, res, false)
	}
	if ph.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d frames failed", ph.failed, n*len(r.lanes))
	}
	return nil
}

// windows returns the closed-loop windows (per cell, overall) of the two
// phases: solo keeps one frame in flight in the whole rig; pipelined
// keeps three in a single cell, two per cell in a fleet.
func (w *spec) windows(pipelined bool) (lane, total int) {
	switch {
	case !pipelined:
		return 1, 1
	case w.cells > 1:
		return 2, 2 * w.cells
	default:
		return 3, 3
	}
}

// stretchRates is a stretch's segment rates — or, where the host is too
// slow to close a single segment, the one rate of everything it completed.
func stretchRates(ph *phase) []float64 {
	rates := segmentRates(ph.done, ph.dur.Nanoseconds(), segment.Nanoseconds())
	if n := len(ph.done); len(rates) == 0 && n > 1 {
		rates = []float64{float64(n-1) / (float64(ph.done[n-1]-ph.done[0]) / 1e9)}
	}
	return rates
}

// rateOf is a stretch's median segment rate; p50Of its median latency in
// milliseconds.
func rateOf(ph *phase) float64 { return quantile(stretchRates(ph), 0.5) }

func p50Of(ph *phase) float64 { return quantileNS(ph.lat, 0.5) / 1e6 }

// tally accumulates the gating counts of closed-loop stretches.
type tally struct {
	attempted, failed, blocks, blocksOK int
	empty                               bool // some stretch completed no frame
}

func (t *tally) add(phs ...*phase) {
	for _, ph := range phs {
		t.attempted += ph.attempted
		t.failed += ph.failed
		t.blocks += ph.blocks
		t.blocksOK += ph.blocksOK
		t.empty = t.empty || len(ph.lat) == 0
	}
}

func (t *tally) frameFailRatio() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// blockErrorRatio is 0 on downlink, whose blocks the verification pass
// proves instead.
func (t *tally) blockErrorRatio() float64 {
	return ratio(float64(t.blocks-t.blocksOK), float64(t.blocks))
}

func (t *tally) into(res *result) {
	res.attempted, res.failed = t.attempted, t.failed
	res.correct = t.failed == 0 && !t.empty
	res.notef("frame_fail_ratio %.6f (%d of %d frames)   block_error_ratio %.6f (%d of %d blocks)",
		t.frameFailRatio(), t.failed, t.attempted, t.blockErrorRatio(), t.blocks-t.blocksOK, t.blocks)
}

// runUntraced is the gating run: end-to-end metrics only, tracing off.
// Each set-up's rig runs a solo stretch (one frame in flight) then a
// pipelined one. frames_per_s is the median over every 0.2 s segment of
// every pipelined stretch, frame_latency_p50_ms the median over every solo
// frame.
func runUntraced(w *spec, seed int64, seconds float64) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	perRig := time.Duration(seconds / setupReps * float64(time.Second))
	soloDur := time.Duration(float64(perRig) * soloShare)
	var (
		setups, rates, rigRate, rigP50 []float64
		lat                            []int64
		tl                             tally
	)
	for i := 0; i < setupReps; i++ {
		runtime.GC() // the previous rig and its pools are garbage before the next are built
		t0 := time.Now()
		r, _, err := setUp(w, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		lw, tw := w.windows(false)
		solo, err := r.runClosed(soloDur, lw, tw)
		var pipe *phase
		if err == nil {
			lw, tw = w.windows(true)
			pipe, err = r.runClosed(perRig-soloDur, lw, tw)
		}
		r.stop()
		if err != nil {
			return nil, err
		}
		tl.add(solo, pipe)
		lat = append(lat, solo.lat...)
		rates = append(rates, stretchRates(pipe)...)
		rigRate = append(rigRate, rateOf(pipe))
		rigP50 = append(rigP50, p50Of(solo))
	}
	res.notef("set-up x%d: %.3f s (median reported); outputs verified on %d live frames per cell each time",
		setupReps, setups, verifyFrames)
	res.notef("pipelined: %d segments of %v, rate quartiles %.4g..%.4g frames/s; per rig %.4g",
		len(rates), segment, quantile(rates, 0.25), quantile(rates, 0.75), rigRate)
	res.notef("solo: %d frames, latency p25 %.4g p50 %.4g p75 %.4g p99 %.4g ms; per rig p50 %.4g",
		len(lat), quantileNS(lat, 0.25)/1e6, quantileNS(lat, 0.5)/1e6, quantileNS(lat, 0.75)/1e6, quantileNS(lat, 0.99)/1e6, rigP50)
	res.metrics["setup_s"] = quantile(setups, 0.5)
	res.metrics["frames_per_s"] = quantile(rates, 0.5)
	res.metrics["frame_latency_p50_ms"] = quantileNS(lat, 0.5) / 1e6
	res.metrics["peak_rss_mb"] = peakRSSMB()
	tl.into(res)
	return res, nil
}

// print writes the notes, then every metric by name with its unit.
func (res *result) print(out io.Writer, w *spec, defs []metricDef) {
	fmt.Fprintf(out, "== %s: %s\n", w.name, w.cfg.String())
	for _, n := range res.notes {
		fmt.Fprintln(out, n)
	}
	for _, d := range defs {
		fmt.Fprintf(out, "  %-40s %14.6g %s\n", d.name, res.metrics[d.name], d.unit)
	}
}
