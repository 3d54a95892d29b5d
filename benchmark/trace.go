package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fronthaul"
	"repro/internal/obs"
	"repro/internal/queue"
)

// The traced run. It never feeds the end-to-end metrics: it spends its
// -seconds on (a) the layer walk, (b) probes of single public calls and
// (c) engine readouts around replay stretches — one solo and one paced
// open-loop stretch, then pipelined stretches on traceRigs fresh rigs with
// the engine's tracer off alternating with traceRigs with it on (see
// rigsPerRun for why several) — whose shares of -seconds are below.
const (
	traceSoloShare  = 0.16
	tracePacedShare = 0.16
	tracePipeShare  = 0.11 // each of 2*traceRigs pipelined stretches
	traceRigs       = 3
	probeReps       = 5 // each probe reports the median of this many loops
)

// outDir receives the span files; with `go run -C benchmark .` it is
// benchmark/out, which is git-ignored.
const outDir = "out"

// counters is the slice of engine state the readouts difference.
type counters struct {
	zfHits, zfMisses, seqGaps, fecRecovered int64
	incidents                               uint64
}

func readCounters(engs []*core.Engine) counters {
	var c counters
	for _, e := range engs {
		m := e.Metrics()
		c.zfHits += m.ZFCacheHits.Load()
		c.zfMisses += m.ZFCacheMisses.Load()
		c.seqGaps += m.SeqGaps.Load()
		c.fecRecovered += m.FECRecovered.Load()
		c.incidents += e.IncidentCount()
	}
	return c
}

func runTraced(w *spec, seed int64, seconds float64) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	for _, d := range perLayer {
		res.metrics[d.name] = 0 // every name is reported, applicable or not
	}
	met := res.metrics
	steal0, ticks0 := cpuTicks()
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }

	r, pools, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r != nil {
			r.stop() // an error return left a rig running
		}
	}()

	// (a) the layer walk over every pool frame of every cell.
	wk, err := newWalker(w)
	if err != nil {
		return nil, err
	}
	for c, p := range pools {
		// The walk loses the packets a fresh injector with the replay's
		// parameters would lose.
		loss := fronthaul.NewLossInjector(w.lossEvery, 0, seed)
		got := false
		deliver := loss.Wrap(func([]byte) error { got = true; return nil })
		for i := range p.frames {
			pf := &p.frames[i]
			var received []bool
			if loss.Active() {
				received = make([]bool, 0, len(pf.pkts))
				for _, pkt := range pf.pkts {
					got = false
					_ = deliver(pkt) // the closure above never errors
					received = append(received, got)
				}
			}
			if err := wk.walkFrame(p, pf, received, r.engines()[c].DownlinkTruth); err != nil {
				return nil, err
			}
		}
	}
	ws := wk.summary()
	walkMetrics(met, wk, &ws, pools)

	// (b) probes.
	pktSize := fronthaul.PacketSize(w.cfg.SamplesPerSymbol())
	met["fronthaul.ring_ns_per_pkt"] = medianOf(probeReps, func() float64 { return probeRing(pktSize) })
	met["queue.roundtrip_ns"] = medianOf(probeReps, probeQueue)
	met["queue.contended_ns"] = medianOf(probeReps, probeQueueContended)
	met["obs.prom_scrape_us"] = medianOf(probeReps, func() float64 { return probeScrape(r.engines()[0]) })

	// (c) engine readouts.
	var tl tally
	solo, err := r.runClosed(share(traceSoloShare), 1, 1)
	if err != nil {
		return nil, err
	}
	tl.add(solo)
	lw, tw := w.windows(true)
	var (
		ratesU, ratesT, p50U []float64
		framesU              float64
		mallocs, gcs         uint64
		tr                   tracedTotals
		paced                *phase
	)
	for i := 0; i < traceRigs; i++ {
		if i > 0 {
			if r, err = newRig(w, pools, seed, false, false); err != nil {
				return nil, err
			}
			if err := r.warm(warmFrames); err != nil {
				return nil, err
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		pipeU, err := r.runClosed(share(tracePipeShare), lw, tw)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		tl.add(pipeU)
		ratesU = append(ratesU, rateOf(pipeU))
		p50U = append(p50U, p50Of(pipeU))
		framesU += float64(len(pipeU.done))
		mallocs += ms1.Mallocs - ms0.Mallocs
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		if i == 0 {
			if ratesU[0] <= 0 {
				return nil, fmt.Errorf("pipelined stretch completed no frame")
			}
			// Half the rate this very rig just sustained.
			if paced, err = r.runPaced(share(tracePacedShare), time.Duration(2e9/ratesU[0])); err != nil {
				return nil, err
			}
		}
		r.stop()
		r = nil
		pipeT, err := tr.stretch(w, pools, seed, share(tracePipeShare))
		if err != nil {
			return nil, err
		}
		tl.add(pipeT)
		ratesT = append(ratesT, rateOf(pipeT))
	}
	rateU := across(res, "pipelined untraced", "frames/s", ratesU)
	rateT := across(res, "pipelined traced", "frames/s", ratesT)
	res.notef("solo: %d frames, latency p50 %.3f ms p99 %.3f ms;  paced at %.1f frames/s: %d due, %d refused or failed",
		len(solo.lat), p50Of(solo), quantileNS(solo.lat, 0.99)/1e6, ratesU[0]/2, paced.attempted, paced.failed)

	for t, s := range stageNames {
		met["core.busy_ms_per_frame."+s] = ratio(float64(tr.stageBusyNS[t])/1e6, tr.frames)
		met["core.tasks_per_frame."+s] = ratio(float64(tr.stageTasks[t]), tr.frames)
	}
	met["core.worker_util"] = ratio(tr.util, tr.lanes)
	met["core.queue_delay_p50_us"] = quantileNS(tr.qdelay, 0.5) / 1e3
	met["core.zf_cache_hit_ratio"] = ratio(float64(tr.c.zfHits), float64(tr.c.zfHits+tr.c.zfMisses))
	met["core.solo_speedup"] = ratio(met["bench.walk_ms_per_frame"], p50Of(solo))
	met["core.solo_latency_p99_ms"] = quantileNS(solo.lat, 0.99) / 1e6
	met["core.pipelined_latency_p50_ms"] = across(res, "pipelined latency p50", "ms", p50U)
	met["core.allocs_per_frame"] = ratio(float64(mallocs), framesU)
	met["core.gc_cycles_per_kframe"] = ratio(float64(gcs)*1e3, framesU)
	met["core.trace_overhead_ratio"] = 1 - ratio(rateT, rateU)
	met["core.paced_latency_p50_ms"] = p50Of(paced)
	met["core.paced_latency_p99_ms"] = quantileNS(paced.lat, 0.99) / 1e6
	met["core.paced_fail_ratio"] = ratio(float64(paced.failed), float64(paced.attempted))
	met["core.incidents"] = ratio(float64(tr.c.incidents), tr.frames)
	met["fronthaul.tx_drops"] = float64(tr.txDrops)
	met["fronthaul.seq_gaps_per_frame"] = ratio(float64(tr.c.seqGaps), tr.frames)
	met["fronthaul.fec_recovered_per_frame"] = ratio(float64(tr.c.fecRecovered), tr.frames)
	met["bench.pacer_lag_p99_ms"] = quantileNS(paced.lagNS, 0.99) / 1e6
	met["bench.replay_ns_per_pkt"] = ratio(float64(tr.rc.restampNS+tr.rc.sendNS), float64(tr.rc.pkts))
	if w.cells > 1 {
		met["fleet.route_ns_per_pkt"] = ratio(float64(tr.rc.sendNS), float64(tr.rc.pkts))
		met["fleet.shed_pkts"] = float64(tr.shed)
		lo, hi := tr.perCell[0], tr.perCell[0]
		for _, n := range tr.perCell {
			lo, hi = min(lo, n), max(hi, n)
		}
		met["fleet.cell_rate_skew"] = ratio(float64(lo), float64(hi))
	}

	// Gating counts cover the closed-loop stretches; the paced open loop
	// is a diagnostic and may refuse frames by construction.
	tl.into(res)
	met["frame_fail_ratio"] = tl.frameFailRatio()
	met["block_error_ratio"] = tl.blockErrorRatio()
	// The walk decodes the frames the engine decodes. On a lossless uplink
	// the two block error ratios may differ only through the engine's ZF
	// cache and the replay not ending on a pool boundary.
	if w.cfg.NumUplink() > 0 && w.lossEvery == 0 {
		if d := met["ldpc.block_fail_ratio"] - met["block_error_ratio"]; d > 0.002 || d < -0.002 {
			res.notef("MISMATCH: walk block_fail_ratio %.6f vs engine block_error_ratio %.6f",
				met["ldpc.block_fail_ratio"], met["block_error_ratio"])
			res.correct = false
		}
	}

	steal1, ticks1 := cpuTicks()
	met["bench.steal_ratio"] = ratio(steal1-steal0, ticks1-ticks0)
	if met["bench.steal_ratio"] > 0.25 {
		res.notef("DISTURBED: the hypervisor stole %.0f%% of CPU time during this run", 100*met["bench.steal_ratio"])
	}
	path, err := writeSpanFile(w, wk, met)
	if err != nil {
		return nil, err
	}
	res.notef("walk: %d frames, %d spans written to %s", ws.frames, len(wk.spans), path)
	return res, nil
}

// across reports the median of per-rig values and notes their spread.
func across(res *result, label, unit string, xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	med := quantile(sorted, 0.5)
	res.notef("%-22s median %.4g %s over %d rigs (quartiles %.4g..%.4g); per rig %.4g",
		label, med, unit, len(xs), quantile(sorted, 0.25), quantile(sorted, 0.75), xs)
	return med
}

// tracedTotals sums what the traced pipelined stretches read out of their
// engines: FrameResult records, counter deltas, and the worker lanes'
// utilization from the reconstructed timeline.
type tracedTotals struct {
	frames      float64
	stageBusyNS [queue.NumTaskTypes]int64
	stageTasks  [queue.NumTaskTypes]int64
	qdelay      []int64
	perCell     []int
	rc          replayCost
	c           counters
	txDrops     int64
	shed        int64
	util, lanes float64
}

// stretch builds a rig with the engine's tracer on, runs one pipelined
// stretch on it and folds the readouts into tr.
func (tr *tracedTotals) stretch(w *spec, pools []*cellPool, seed int64, dur time.Duration) (*phase, error) {
	r, err := newRig(w, pools, seed, false, true)
	if err != nil {
		return nil, err
	}
	if err := r.warm(warmFrames); err != nil {
		r.stop()
		return nil, err
	}
	lw, tw := w.windows(true)
	c0 := readCounters(r.engines())
	ph, err := r.runClosed(dur, lw, tw)
	c1 := readCounters(r.engines())
	if r.fl != nil {
		tr.shed += r.fl.Shed()
	} else {
		tr.txDrops += r.rru.Stats().TxDrops + r.engSide.Stats().TxDrops
	}
	r.stop() // quiesce: the trace rings are only readable at rest
	if err != nil {
		return nil, err
	}
	for _, e := range r.engines() {
		for _, wu := range e.Timeline().Workers {
			if wu.Lane < runtime.NumCPU() { // worker lanes; the last lane is network TX
				tr.util += wu.Utilization()
				tr.lanes++
			}
		}
	}
	tr.frames += float64(len(ph.done))
	for t := range ph.stageBusyNS {
		tr.stageBusyNS[t] += ph.stageBusyNS[t]
		tr.stageTasks[t] += ph.stageTasks[t]
	}
	tr.qdelay = append(tr.qdelay, ph.qdelay...)
	if tr.perCell == nil {
		tr.perCell = make([]int, len(ph.perCell))
	}
	for c, n := range ph.perCell {
		tr.perCell[c] += n
	}
	tr.rc.restampNS += ph.rc.restampNS
	tr.rc.sendNS += ph.rc.sendNS
	tr.rc.pkts += ph.rc.pkts
	tr.c.zfHits += c1.zfHits - c0.zfHits
	tr.c.zfMisses += c1.zfMisses - c0.zfMisses
	tr.c.seqGaps += c1.seqGaps - c0.seqGaps
	tr.c.fecRecovered += c1.fecRecovered - c0.fecRecovered
	tr.c.incidents += c1.incidents - c0.incidents
	return ph, nil
}

// walkMetrics turns the walk's spans and counts into the (a) metrics.
func walkMetrics(met map[string]float64, wk *walker, ws *walkSummary, pools []*cellPool) {
	frames := float64(ws.frames)
	var pkts, bytes, emitNS int64
	for _, p := range pools {
		emitNS += p.emitNS
		for i := range p.frames {
			for _, pkt := range p.frames[i].pkts {
				pkts++
				bytes += int64(len(pkt))
			}
		}
	}
	met["fronthaul.pkts_per_frame"] = ratio(float64(pkts), frames)
	met["fronthaul.bytes_per_frame"] = ratio(float64(bytes), frames)
	met["fronthaul.parse_ns_per_pkt"] = ratio(float64(ws.totalNS["fronthaul.parse"]), float64(pkts))
	met["fronthaul.fec_reconstruct_us_per_burst"] = ws.perCallUS("fronthaul.fec_reconstruct")
	met["fft.calls_per_frame"] = ratio(float64(ws.count["fft.forward"]+ws.count["fft.inverse"]), frames)
	met["fft.forward_us_per_call"] = ws.perCallUS("fft.forward")
	met["fft.inverse_us_per_call"] = ws.perCallUS("fft.inverse")
	met["fft.busy_ms_per_frame"] = ws.perFrameMS(ws.layerNS["fft"])
	met["mat.zf_groups_per_frame"] = ratio(float64(ws.count["mat.zf"]), frames)
	met["mat.zf_us_per_group"] = ws.perCallUS("mat.zf")
	met["mat.equalize_us_per_symbol"] = ws.perCallUS("mat.equalize")
	// One precode span covers one ZF group; a symbol is all its groups.
	met["mat.precode_us_per_symbol"] = ws.perCallUS("mat.precode") * float64(wk.cfg.ZFGroups())
	met["mat.busy_ms_per_frame"] = ws.perFrameMS(ws.layerNS["mat"])
	met["modulation.demod_us_per_symbol"] = ws.perCallUS("modulation.demod")
	met["modulation.modulate_us_per_symbol"] = ws.perCallUS("modulation.modulate") * float64(wk.cfg.ZFGroups())
	met["modulation.busy_ms_per_frame"] = ws.perFrameMS(ws.layerNS["modulation"])
	blocks := float64(ws.count["ldpc.decode"])
	met["ldpc.blocks_per_frame"] = ratio(blocks+float64(ws.count["ldpc.encode"]), frames)
	met["ldpc.decode_us_per_block"] = ws.perCallUS("ldpc.decode")
	met["ldpc.encode_us_per_block"] = ws.perCallUS("ldpc.encode")
	met["ldpc.iters_per_block"] = ratio(float64(wk.iters), blocks)
	met["ldpc.early_exit_ratio"] = ratio(float64(wk.earlyExits), blocks)
	met["ldpc.block_fail_ratio"] = ratio(float64(wk.blockFails), blocks)
	met["ldpc.busy_ms_per_frame"] = ws.perFrameMS(ws.layerNS["ldpc"])
	met["workload.emit_ms_per_frame"] = ratio(float64(emitNS)/1e6, frames)
	// The users' receiver is verification, not part of the chain walked.
	met["bench.walk_ms_per_frame"] = ws.perFrameMS(ws.walkNS - ws.userRxNS)
	met["bench.walk_glue_ms_per_frame"] = ws.perFrameMS(ws.selfNS + ws.layerNS["bench"] - ws.userRxNS)
}

func medianOf(n int, f func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	return quantile(xs, 0.5)
}

// probeRing times Send -> RecvBatch -> Release on a private ring at the
// workload's packet size, in ns per packet.
func probeRing(pktSize int) float64 {
	const rounds, burst = 200, 64
	ring := fronthaul.NewRing(4096, pktSize+64)
	tx, rx := ring.Side(0), ring.Side(1)
	defer tx.Close()
	pkt := make([]byte, pktSize)
	batch := make([][]byte, burst)
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for j := 0; j < burst; j++ {
			_ = tx.Send(pkt) // an open ring this empty neither errors nor drops
		}
		for got := 0; got < burst; {
			n, _ := rx.RecvBatch(batch)
			for _, b := range batch[:n] {
				rx.Release(b)
			}
			got += n
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / (rounds * burst)
}

// probeQueue times an uncontended TryEnqueue+TryDequeue pair.
func probeQueue() float64 {
	const n = 200_000
	q := queue.New(1024)
	m := queue.Msg{Type: queue.TaskFFT, Batch: 1}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		q.TryEnqueue(m)
		q.TryDequeue()
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// probeQueueContended moves n messages from a producer goroutine to this
// one through one queue, in ns per message.
func probeQueueContended() float64 {
	const n = 200_000
	q := queue.New(1024)
	done := make(chan struct{})
	t0 := time.Now()
	go func() {
		defer close(done)
		m := queue.Msg{Type: queue.TaskFFT, Batch: 1}
		for i := 0; i < n; {
			if q.TryEnqueue(m) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < n; {
		if _, ok := q.TryDequeue(); ok {
			i++
		} else {
			runtime.Gosched()
		}
	}
	<-done
	return float64(time.Since(t0).Nanoseconds()) / n
}

// probeScrape times one Prometheus scrape of a live engine, in µs.
func probeScrape(e *core.Engine) float64 {
	const n = 20
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := e.Metrics().Snap()
		_ = obs.WritePromSnapshot(io.Discard, &s) // Discard cannot fail
	}
	return float64(time.Since(t0).Microseconds()) / n
}

// traceEvent is one Chrome trace-event "complete" record.
type traceEvent struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat"`
	Ph   string   `json:"ph"`
	TS   float64  `json:"ts"`  // µs
	Dur  float64  `json:"dur"` // µs
	PID  int      `json:"pid"`
	TID  int      `json:"tid"`
	Args spanArgs `json:"args"`
}

type spanArgs struct {
	ID     int `json:"id"`
	Parent int `json:"parent"`
	Frame  int `json:"frame"`
}

// writeSpanFile dumps the walk's spans, from memory, in Chrome
// trace-event format (chrome://tracing, Perfetto), with the probe and
// engine-readout numbers beside them.
func writeSpanFile(w *spec, wk *walker, met map[string]float64) (string, error) {
	doc := struct {
		TraceEvents []traceEvent       `json:"traceEvents"`
		OtherData   map[string]float64 `json:"otherData"`
	}{OtherData: met}
	for i, sp := range wk.spans {
		cat, _, _ := strings.Cut(sp.name, ".")
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: sp.name, Cat: cat, Ph: "X",
			TS: float64(sp.start) / 1e3, Dur: float64(sp.end-sp.start) / 1e3,
			PID: 1, TID: 1,
			Args: spanArgs{i, sp.parent, sp.frame},
		})
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+w.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(&doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
