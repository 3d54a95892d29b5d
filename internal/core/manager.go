package core

import (
	"runtime"
	"time"

	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/sched"
)

// runManager is Agora's manager thread (§3.2): it consumes RX
// notifications and task completions, advances the frame DAG
// (internal/sched), and flushes the tasks it releases onto the per-type
// task queues.
func (e *Engine) runManager() {
	defer e.wg.Done()
	if e.opts.RealTime {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	frameTimeout := e.opts.FrameTimeout
	lastTimeoutCheck := time.Now()
	idle := 0      // consecutive empty polls, drives the backoff
	idlePolls := 0 // all empty polls, paces the reap-deadline check
	loops := 0
	for {
		// Queue-depth gauges: sampling every 256 manager iterations keeps
		// the gauges fresh at microsecond-scale loop rates while costing a
		// handful of atomic loads per sample.
		loops++
		if loops&0xff == 0 {
			e.sampleQueues()
		}
		if e.drain() {
			idle = 0
			continue
		}
		select {
		case <-e.stop:
			return
		default:
		}
		// The reap deadline is FrameTimeout/4 (hundreds of ms); reading the
		// clock on every empty poll to test it was 5 % of a busy engine's
		// CPU. Every 64th empty poll is at most 64 backoff sleeps (~1.3 ms)
		// late. The count never resets on progress, so a stale frame is
		// still reaped while other traffic flows.
		idlePolls++
		if idlePolls&63 == 0 {
			if now := time.Now(); now.Sub(lastTimeoutCheck) > frameTimeout/4 {
				e.reapStale(now)
				e.flush()
				lastTimeoutCheck = now
			}
		}
		idle++
		if idle > 256 && !e.opts.RealTime {
			time.Sleep(20 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// drain handles every task completion and then every RX message queued
// so far, flushing the tasks each releases, and reports whether there
// was any.
func (e *Engine) drain() bool {
	progress := false
	for {
		m, ok := e.compQ.TryDequeue()
		if !ok {
			break
		}
		e.onCompletion(m)
		e.flush()
		progress = true
	}
	for {
		m, ok := e.rxQ.TryDequeue()
		if !ok {
			break
		}
		e.onRX(m)
		e.flush()
		progress = true
	}
	return progress
}

// sampleQueues records every queue's instantaneous depth into the live
// metric gauges (depth now + high-water mark).
func (e *Engine) sampleQueues() {
	for t := queue.TaskType(0); t < queue.NumTaskTypes; t++ {
		e.met.SampleQueue(int(t), e.taskQ[t].Len())
	}
	e.met.SampleQueue(obs.GaugeRX, e.rxQ.Len())
	e.met.SampleQueue(obs.GaugeComp, e.compQ.Len())
}

// onRX handles one RX-goroutine message: an accepted packet, or the
// refusal of a frame whose buffer slot an older frame holds.
func (e *Engine) onRX(m queue.Msg) {
	if m.Aux == rxRefused {
		e.retire(m.Frame, nil, true)
		return
	}
	f := &e.slots[m.Slot]
	switch {
	case f.phase == slotLive && f.ID == m.Frame:
		e.dispatchRX(f, m)
	case f.phase == slotPending && f.ID == m.Frame:
		f.held = append(f.held, m)
		e.tryAdmitPending()
	case f.phase == slotFree && e.slotOwner[m.Slot].Load() == heldBy(m.Frame):
		e.open(f, m)
	}
	// Anything else was queued by a frame before its retirement: its slot
	// is free again or held by a newer frame, whose state it must not
	// touch.
}

// open starts slot record f for the frame whose first RX message m just
// arrived: admitted at once when the gate is open, held pending
// otherwise.
func (e *Engine) open(f *slotRec, m queue.Msg) {
	f.ID, f.firstPkt = m.Frame, time.Now()
	f.rec.Reset(m.Frame)
	// Counter baselines were snapshotted by the RX goroutine when this
	// frame claimed its slot (see claim) — reading the live counters here
	// would fold in gaps RX already counted inside this frame's burst,
	// zeroing the incident deltas.
	f.seqGapBase = e.slotGapBase[m.Slot].Load()
	f.seqLateBase = e.slotLateBase[m.Slot].Load()
	f.fecBase = e.slotFECBase[m.Slot].Load()
	if e.dag.Admissible() {
		e.admit(f)
		e.dispatchRX(f, m)
		return
	}
	f.phase = slotPending
	f.held = append(f.held, m)
	e.pendingCnt++
}

// admit makes slot record f's frame live: it clears the milestone stamps
// and starts the frame's DAG state, which releases any downlink encode
// tasks. The steady-state path allocates nothing.
func (e *Engine) admit(f *slotRec) {
	f.start = time.Time{}
	f.pilotDoneT, f.zfDoneT = time.Time{}, time.Time{}
	f.decodeDoneT, f.txDoneT, f.firstTXT = time.Time{}, time.Time{}, time.Time{}
	f.zfCached = false
	e.dag.Admit(&f.Frame, f.ID, int(f.Slot))
	f.phase = slotLive
	e.met.FreeStates.Add(-1)
}

// dispatchRX hands one packet arrival to the frame DAG, which releases
// (batched) FFT work. Duplicate packets (UDP retransmits, misbehaving
// RRUs) are dropped here: processing an antenna twice would corrupt the
// frame's task accounting.
func (e *Engine) dispatchRX(f *slotRec, m queue.Msg) {
	if !e.dag.Arrive(&f.Frame, int(m.Symbol), int(m.TaskIdx)) {
		e.drops.Add(1)
	}
}

// flush moves the tasks the frame DAG released onto their queues. A full
// queue is waited out by handling completions; what those release queues
// up behind the tasks this loop has yet to take.
func (e *Engine) flush() {
	for {
		m, ok := e.dag.Next()
		if !ok {
			return
		}
		if f := &e.slots[m.Slot]; f.phase == slotLive && f.ID == m.Frame && f.start.IsZero() {
			f.start = time.Now()
		}
		for !e.taskQ[m.Type].TryEnqueue(m) {
			if cm, ok := e.compQ.TryDequeue(); ok {
				e.onCompletion(cm)
			} else {
				runtime.Gosched()
			}
		}
	}
}

// onCompletion advances the frame DAG by one completed task message.
func (e *Engine) onCompletion(m queue.Msg) {
	if m.Type == queue.TaskZF && m.Aux == 1 {
		// A completed cache-copy task no longer reads the cache matrices;
		// account it even if its frame was reaped so refresh can proceed.
		e.zfc.copies -= int(m.Batch)
	}
	f := &e.slots[m.Slot]
	if f.phase != slotLive || f.ID != m.Frame {
		e.dag.Complete(nil, m) // the frame was retired
		return
	}
	if e.recorder {
		f.rec.Observe(m.Type, m.T0, m.T1, int(m.Batch))
	}
	ev := e.dag.Complete(&f.Frame, m)
	if ev != 0 {
		e.onMilestones(f, ev)
	}
	if ev&sched.FrameDone != 0 {
		e.retire(f.ID, f, false)
	} else {
		e.tryAdmitPending()
	}
}

// onMilestones stamps the milestones a completion reached and runs the
// engine's side of them: the coherence-cache decision that releases the
// ZF tasks, and the cache refresh once ZF is done.
func (e *Engine) onMilestones(f *slotRec, ev sched.Event) {
	now := time.Now()
	if ev&sched.PilotsDone != 0 {
		f.pilotDoneT = now
		// Coherence-cache decision (DESIGN §14): with the full pilot
		// estimate in, compare it against the cached CSI snapshot. A hit
		// turns every ZF task into a cache copy (Aux=1).
		f.zfCached = e.zfCacheHit(f)
		if f.zfCached {
			e.zfc.age++
			e.zfc.copies += e.cfg.ZFGroups()
			e.met.ZFCacheHits.Add(1)
		} else if e.zfc.enabled {
			e.met.ZFCacheMisses.Add(1)
		}
		e.dag.ReleaseZF(&f.Frame, f.zfCached)
	}
	if ev&sched.ZFDone != 0 {
		f.zfDoneT = now
		if e.zfc.enabled && !f.zfCached && e.zfc.copies == 0 {
			// Fresh recompute finished and no cache-copy task is in
			// flight: snapshot this frame's CSI and ZF output. (If copies
			// > 0 an older hit is still copying; skip the refresh rather
			// than racing it — the next miss retries.)
			e.refreshZFCache(int(f.Slot))
		}
	}
	if ev&sched.DecodeDone != 0 {
		f.decodeDoneT = now
	}
	if ev&sched.FirstTX != 0 {
		f.firstTXT = now
	}
	if ev&sched.TXDone != 0 {
		f.txDoneT = now
	}
}

// zfCacheHit decides whether frame f's pilot estimate is within the
// coherence window of the cached snapshot: relative Frobenius delta under
// zfCacheDelta, summed over ZF groups, and snapshot age under
// zfCacheMaxAge frames.
func (e *Engine) zfCacheHit(f *slotRec) bool {
	c := &e.zfc
	if !c.enabled || !c.valid || c.age >= zfCacheMaxAge {
		return false
	}
	var num, den float64
	for g := range c.csi {
		num += c.csi[g].FrobDiffSq(e.buf.csi[f.Slot][g])
		den += c.csi[g].FrobNormSq()
	}
	if den <= 0 {
		return false
	}
	d := float64(zfCacheDelta) // squared in float64, not as an exact constant
	return num <= d*d*den
}

// refreshZFCache snapshots slot's CSI and ZF output into the cache. Only
// called with zero cache-copy tasks in flight, so no worker reads the
// matrices being rewritten; subsequent hit frames observe the new data
// through the task-queue enqueue/dequeue ordering.
func (e *Engine) refreshZFCache(slot int) {
	c := &e.zfc
	for g := range c.csi {
		copy(c.csi[g].Data, e.buf.csi[slot][g].Data)
		copy(c.eq[g].Data, e.buf.eq[slot][g].Data)
		if c.pre != nil {
			copy(c.pre[g].Data, e.buf.pre[slot][g].Data)
		}
	}
	c.valid = true
	c.age = 0
}

// tryAdmitPending admits the oldest pending frame, in serial-number order,
// when the gate is open.
func (e *Engine) tryAdmitPending() {
	if e.pendingCnt == 0 || !e.dag.Admissible() {
		return
	}
	var f *slotRec
	for s := range e.slots {
		p := &e.slots[s]
		if p.phase == slotPending && (f == nil || newer(f.ID, p.ID)) {
			f = p
		}
	}
	e.pendingCnt--
	e.admit(f)
	for _, m := range f.held {
		e.dispatchRX(f, m)
	}
	f.held = f.held[:0]
}

// retire is the one exit of every frame, completed or Dropped: it emits
// the frame's FrameResult and, for a Dropped frame or one past its
// deadline, its incident. f is the record of the slot the frame held,
// pending or live, whose leases retire sweeps before it frees the slot;
// f is nil for a frame refused at RX, which never held one.
func (e *Engine) retire(id uint32, f *slotRec, dropped bool) {
	res := FrameResult{Frame: id, Dropped: dropped}
	var refused obs.FrameRec
	rec := &refused
	var gapBase, lateBase, fecBase int64
	var end time.Time
	if f == nil {
		res.FirstPkt = time.Now()
		refused.Frame = id
		gapBase, lateBase, fecBase = e.met.SeqGaps.Load(), e.met.SeqLate.Load(), e.met.FECRecovered.Load()
	} else {
		rec = &f.rec
		res.FirstPkt = f.firstPkt
		gapBase, lateBase, fecBase = f.seqGapBase, f.seqLateBase, f.fecBase
		if f.phase == slotLive {
			res.Start, res.PilotDone, res.ZFDone = f.start, f.pilotDoneT, f.zfDoneT
			res.DecodeDone, res.TXDone, res.FirstTX = f.decodeDoneT, f.txDoneT, f.firstTXT
			end = f.decodeDoneT
			if e.cfg.NumUplink() == 0 {
				end = f.txDoneT
			}
			if !end.IsZero() {
				res.Latency = end.Sub(f.firstPkt)
			}
		}
	}
	if e.recorder {
		// Seal the attribution record: frame bounds + latency in epoch
		// nanoseconds, then hand a copy to the result and the SLO
		// histograms. Healthy frames take only the two comparisons in
		// the incident gate below.
		rec.FirstPktNS = e.stamp(res.FirstPkt)
		if !end.IsZero() {
			rec.DoneNS = e.stamp(end)
		}
		rec.LatencyNS = res.Latency.Nanoseconds()
		rec.Dropped = dropped
		res.Rec = *rec
		if !dropped {
			e.met.ObserveStages(rec)
		}
		budget := e.met.FrameBudgetNS.Load()
		if dropped || (budget > 0 && rec.LatencyNS > budget) {
			reason := obs.IncidentDeadline
			if dropped {
				reason = obs.IncidentDrop
				if e.met.SeqGaps.Load() > gapBase {
					reason = obs.IncidentLoss
				}
			}
			e.captureIncident(rec, reason, gapBase, lateBase, fecBase)
		}
	}
	if dropped {
		e.met.FramesDropped.Add(1)
	} else {
		if res.Latency > 0 {
			e.met.ObserveFrame(res.Latency.Nanoseconds())
		}
		e.blockResults(&res, int(f.Slot))
	}
	if f != nil {
		switch f.phase {
		case slotLive:
			e.dag.Finish()
			e.met.FreeStates.Add(1)
		case slotPending:
			e.pendingCnt--
			f.held = f.held[:0]
		}
		f.phase = slotFree
		// Sweep unconsumed RX leases (lost frames abandon payloads
		// mid-symbol) BEFORE the slot is released: once the owner word
		// clears, netRX may lease new buffers into the same rows (DESIGN
		// §15). Completions still in flight for this frame are filtered
		// by the (phase, id) check in onCompletion and never touch the
		// record's next frame (DESIGN §14).
		e.reclaimLeases(int(f.Slot))
		e.releaseSlot(int(f.Slot))
	}
	select {
	case e.results <- res:
	default: // consumer too slow; drop the report, not the pipeline
	}
	e.tryAdmitPending()
}

// blockResults fills a completed frame's code-block outcomes from slot's
// buffers, and its decoded bits under Options.KeepBits.
func (e *Engine) blockResults(res *FrameResult, slot int) {
	cfg := &e.cfg
	for s := 0; s < cfg.NumSymbols(); s++ {
		if cfg.SymbolAt(s) != frame.Uplink {
			continue
		}
		for u := 0; u < cfg.Users; u++ {
			res.BlocksTotal++
			if e.buf.decodeOK[slot][s][u] {
				res.BlocksOK++
			}
		}
	}
	if !e.opts.KeepBits {
		return
	}
	res.Bits = make([][][]byte, cfg.NumSymbols())
	res.OKMask = make([][]bool, cfg.NumSymbols())
	for s := 0; s < cfg.NumSymbols(); s++ {
		if cfg.SymbolAt(s) != frame.Uplink {
			continue
		}
		res.Bits[s] = make([][]byte, cfg.Users)
		res.OKMask[s] = make([]bool, cfg.Users)
		for u := 0; u < cfg.Users; u++ {
			res.Bits[s][u] = append([]byte(nil), e.buf.decoded[slot][s][u]...)
			res.OKMask[s][u] = e.buf.decodeOK[slot][s][u]
		}
	}
}

// captureIncident records a bad frame's post-mortem into the flight
// recorder ring (DESIGN §17): the attribution record plus the system
// gauges at capture time. Rare by construction, so it re-samples the
// queue depths for freshness before snapshotting them.
func (e *Engine) captureIncident(rec *obs.FrameRec, reason obs.IncidentReason,
	seqGapBase, seqLateBase, fecBase int64) {
	e.sampleQueues()
	inc := obs.Incident{
		Reason:            reason,
		Rec:               *rec,
		FreeStates:        e.met.FreeStates.Load(),
		SeqGapsDelta:      e.met.SeqGaps.Load() - seqGapBase,
		SeqLateDelta:      e.met.SeqLate.Load() - seqLateBase,
		FECRecoveredDelta: e.met.FECRecovered.Load() - fecBase,
	}
	for i := 0; i < obs.NumGauges; i++ {
		inc.Queues[i] = e.met.QueueDepth[i].Load()
		inc.QueueMax[i] = e.met.QueueMax[i].Load()
	}
	e.incidents.Record(inc)
	e.met.Incidents.Add(1)
}

// releaseSlot clears the RX-dedupe bitmap and frees the slot-owner word.
// The bitmap clear must come BEFORE releasing the slot: once the owner
// word is free a new frame may claim the slot and start setting flags,
// which a late clear would wipe.
func (e *Engine) releaseSlot(slot int) {
	for sym := range e.rxSeen[slot] {
		for a := range e.rxSeen[slot][sym] {
			e.rxSeen[slot][sym][a].Store(false)
		}
	}
	e.slotOwner[slot].Store(0)
}

// reapStale drops every frame, pending or live, that stopped making
// progress (lost packets): one whose first packet is older than
// FrameTimeout at now.
func (e *Engine) reapStale(now time.Time) {
	for s := range e.slots {
		f := &e.slots[s]
		if f.phase != slotFree && now.Sub(f.firstPkt) > e.opts.FrameTimeout {
			e.drops.Add(1)
			e.retire(f.ID, f, true)
		}
	}
}
