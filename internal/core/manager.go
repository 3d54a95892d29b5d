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
		if !progress {
			select {
			case <-e.stop:
				return
			default:
			}
			// The reap deadline is FrameTimeout/4 (hundreds of ms); reading
			// the clock on every empty poll to test it was 5 % of a busy
			// engine's CPU. Every 64th empty poll is at most 64 backoff
			// sleeps (~1.3 ms) late. The count never resets on progress, so
			// a stale frame is still reaped while other traffic flows.
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
		} else {
			idle = 0
		}
	}
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

// allocFrameState allocates one frameState with every slice sized for the
// frame geometry. Called only at engine construction to stock the
// free-list, and as overflow when more frames are concurrently tracked
// than Slots ever provisioned.
func (e *Engine) allocFrameState() *frameState {
	return &frameState{Frame: e.dag.NewFrame()}
}

// releaseFrameState returns a finished frame's state to the free-list.
// Ownership rule (DESIGN §14): after finishFrame nothing may retain the
// pointer — late completions are filtered by (slot, frame-id) before any
// frameState is touched.
func (e *Engine) releaseFrameState(f *frameState) {
	if e.opts.noRecycle {
		return
	}
	e.freeStates = append(e.freeStates, f)
	e.met.FreeStates.Store(int64(len(e.freeStates)))
}

// admit makes frame id live in slot: it recycles a frameState off the
// free-list (the steady-state path allocates nothing), starts its DAG,
// which releases any downlink encode tasks, and installs it.
func (e *Engine) admit(id uint32, slot int, firstPkt time.Time) *frameState {
	var f *frameState
	if n := len(e.freeStates); n > 0 {
		f = e.freeStates[n-1]
		e.freeStates[n-1] = nil
		e.freeStates = e.freeStates[:n-1]
		e.met.FreeStates.Store(int64(n - 1))
	} else {
		f = e.allocFrameState()
	}
	f.firstPkt, f.start = firstPkt, time.Time{}
	f.pilotDoneT, f.zfDoneT = time.Time{}, time.Time{}
	f.decodeDoneT, f.txDoneT, f.firstTXT = time.Time{}, time.Time{}, time.Time{}
	f.zfCached = false
	f.rec.Reset(id)
	// Counter baselines were snapshotted by the RX goroutine when this
	// frame claimed its slot (see acceptPacket) — reading the live
	// counters here would fold in gaps RX already counted inside this
	// frame's burst, zeroing the incident deltas.
	f.seqGapBase = e.slotGapBase[slot].Load()
	f.seqLateBase = e.slotLateBase[slot].Load()
	f.fecBase = e.slotFECBase[slot].Load()
	e.dag.Admit(&f.Frame, id, slot)
	e.frameBySlot[slot] = f
	return f
}

// lookupFrame finds a live frame by id (slot scan; Slots is small).
func (e *Engine) lookupFrame(id uint32) *frameState {
	for _, f := range e.frameBySlot {
		if f != nil && f.ID == id {
			return f
		}
	}
	return nil
}

// pendingFor finds a buffered not-yet-admitted frame by id.
func (e *Engine) pendingFor(id uint32) *pendingFrame {
	for s := range e.pending {
		if e.pending[s].used && e.pending[s].id == id {
			return &e.pending[s]
		}
	}
	return nil
}

// noteGhost records a rejected-at-admission frame in the fixed ghost
// ring. A full ring evicts its oldest entry by emitting that entry's
// Dropped result immediately instead of at timeout.
func (e *Engine) noteGhost(id uint32) {
	free := -1
	for i := range e.ghosts {
		g := &e.ghosts[i]
		if g.used && g.id == id {
			return
		}
		if !g.used && free < 0 {
			free = i
		}
	}
	if free < 0 {
		oldest := 0
		for i := range e.ghosts {
			if e.ghosts[i].t.Before(e.ghosts[oldest].t) {
				oldest = i
			}
		}
		e.expireGhost(&e.ghosts[oldest])
		free = oldest
	}
	e.ghosts[free] = ghostEntry{id: id, t: time.Now(), used: true}
}

// clearGhost forgets a ghost once one of its packets lands after all.
func (e *Engine) clearGhost(id uint32) {
	for i := range e.ghosts {
		if e.ghosts[i].used && e.ghosts[i].id == id {
			e.ghosts[i].used = false
			return
		}
	}
}

// expireGhost emits a ghost's Dropped result and frees its ring entry.
func (e *Engine) expireGhost(g *ghostEntry) {
	g.used = false
	e.met.FramesDropped.Add(1)
	select {
	case e.results <- FrameResult{Frame: g.id, Dropped: true, FirstPkt: g.t}:
	default: // consumer too slow; drop the report, not the pipeline
	}
}

// onRX handles one received-packet notification.
func (e *Engine) onRX(m queue.Msg) {
	if m.Aux != 0 {
		// Ghost notification: every packet of frame m.Frame is bouncing off
		// an occupied buffer slot. If no packet ever lands, reapStale emits
		// a Dropped result so consumers expecting one result per frame are
		// not left waiting on a frame the engine silently rejected.
		if e.lookupFrame(m.Frame) != nil || e.pendingFor(m.Frame) != nil {
			return
		}
		e.noteGhost(m.Frame)
		return
	}
	e.clearGhost(m.Frame) // a packet got through after all
	slot := int(m.Slot)
	if f := e.frameBySlot[slot]; f != nil && f.ID == m.Frame {
		e.dispatchRX(f, m)
		return
	}
	// acceptPacket only passes packets of the slot's owner, so a used
	// pending entry at this slot can only belong to the same frame.
	if p := &e.pending[slot]; p.used && p.id == m.Frame {
		p.msgs = append(p.msgs, m)
		e.tryAdmitPending()
		return
	}
	// Admission guard: only messages of the slot's CURRENT owner may
	// create frame state. A notification from a frame that was already
	// reaped (slot released and possibly re-claimed by a newer frame)
	// must not re-admit the dead frame or clobber the new owner's state.
	if e.slotOwner[slot].Load() != m.Frame+1 {
		return
	}
	if e.dag.Admissible() {
		e.dispatchRX(e.admit(m.Frame, slot, time.Now()), m)
		return
	}
	p := &e.pending[slot]
	p.id, p.used, p.first = m.Frame, true, time.Now()
	p.msgs = append(p.msgs[:0], m)
	e.pendingCnt++
}

// dispatchRX hands one packet arrival to the frame DAG, which releases
// (batched) FFT work. Duplicate packets (UDP retransmits, misbehaving
// RRUs) are dropped here: processing an antenna twice would corrupt the
// frame's task accounting.
func (e *Engine) dispatchRX(f *frameState, m queue.Msg) {
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
		if f := e.frameBySlot[m.Slot]; f != nil && f.ID == m.Frame && f.start.IsZero() {
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
	f := e.frameBySlot[m.Slot]
	if f == nil || f.ID != m.Frame {
		e.dag.Complete(nil, m) // frame was reaped
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
		e.finishFrame(f, false)
	} else {
		e.tryAdmitPending()
	}
}

// onMilestones stamps the milestones a completion reached and runs the
// engine's side of them: the coherence-cache decision that releases the
// ZF tasks, and the cache refresh once ZF is done.
func (e *Engine) onMilestones(f *frameState, ev sched.Event) {
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
// ZFCacheDelta, summed over ZF groups, and snapshot age under
// ZFCacheMaxAge frames.
func (e *Engine) zfCacheHit(f *frameState) bool {
	c := &e.zfc
	if !c.enabled || !c.valid {
		return false
	}
	if e.opts.ZFCacheMaxAge > 0 && c.age >= e.opts.ZFCacheMaxAge {
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
	d := e.opts.ZFCacheDelta
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

// tryAdmitPending admits buffered frames when the gate opens.
func (e *Engine) tryAdmitPending() {
	if e.pendingCnt == 0 || !e.dag.Admissible() {
		return
	}
	// Admit the oldest pending frame.
	oldest := -1
	for s := range e.pending {
		if !e.pending[s].used {
			continue
		}
		if oldest < 0 || e.pending[s].id < e.pending[oldest].id {
			oldest = s
		}
	}
	if oldest < 0 {
		return
	}
	p := &e.pending[oldest]
	p.used = false
	e.pendingCnt--
	f := e.admit(p.id, oldest, p.first)
	for _, pm := range p.msgs {
		e.dispatchRX(f, pm)
	}
	p.msgs = p.msgs[:0]
}

// finishFrame emits the FrameResult and releases the slot.
func (e *Engine) finishFrame(f *frameState, dropped bool) {
	cfg := &e.cfg
	res := FrameResult{
		Frame:      f.ID,
		Dropped:    dropped,
		FirstPkt:   f.firstPkt,
		Start:      f.start,
		PilotDone:  f.pilotDoneT,
		ZFDone:     f.zfDoneT,
		DecodeDone: f.decodeDoneT,
		TXDone:     f.txDoneT,
		FirstTX:    f.firstTXT,
	}
	end := f.decodeDoneT
	if cfg.NumUplink() == 0 {
		end = f.txDoneT
	}
	if !end.IsZero() {
		res.Latency = end.Sub(f.firstPkt)
	}
	if e.recorder {
		// Seal the attribution record: frame bounds + latency in epoch
		// nanoseconds, then hand a copy to the result and the SLO
		// histograms. Healthy frames take only the two comparisons in
		// the incident gate below.
		f.rec.FirstPktNS = e.stamp(f.firstPkt)
		if !end.IsZero() {
			f.rec.DoneNS = e.stamp(end)
		}
		f.rec.LatencyNS = res.Latency.Nanoseconds()
		f.rec.Dropped = dropped
		res.Rec = f.rec
		if !dropped {
			e.met.ObserveStages(&f.rec)
		}
		budget := e.met.FrameBudgetNS.Load()
		if dropped || (budget > 0 && f.rec.LatencyNS > budget) {
			reason := obs.IncidentDeadline
			if dropped {
				reason = obs.IncidentDrop
				if e.met.SeqGaps.Load() > f.seqGapBase {
					reason = obs.IncidentLoss
				}
			}
			e.captureIncident(&f.rec, reason, f.seqGapBase, f.seqLateBase, f.fecBase)
		}
	}
	if dropped {
		e.met.FramesDropped.Add(1)
	} else if res.Latency > 0 {
		e.met.ObserveFrame(res.Latency.Nanoseconds())
	}
	if !dropped {
		for s := 0; s < cfg.NumSymbols(); s++ {
			if cfg.SymbolAt(s) != frame.Uplink {
				continue
			}
			for u := 0; u < cfg.Users; u++ {
				res.BlocksTotal++
				if e.buf.decodeOK[f.Slot][s][u] {
					res.BlocksOK++
				}
			}
		}
		if e.opts.KeepBits {
			res.Bits = make([][][]byte, cfg.NumSymbols())
			res.OKMask = make([][]bool, cfg.NumSymbols())
			for s := 0; s < cfg.NumSymbols(); s++ {
				if cfg.SymbolAt(s) != frame.Uplink {
					continue
				}
				res.Bits[s] = make([][]byte, cfg.Users)
				res.OKMask[s] = make([]bool, cfg.Users)
				for u := 0; u < cfg.Users; u++ {
					res.Bits[s][u] = append([]byte(nil), e.buf.decoded[f.Slot][s][u]...)
					res.OKMask[s][u] = e.buf.decodeOK[f.Slot][s][u]
				}
			}
		}
	}
	e.frameBySlot[f.Slot] = nil
	e.dag.Finish()
	// Sweep unconsumed RX leases (lost frames abandon payloads mid-symbol)
	// BEFORE the slot is released: once the owner word clears, netRX may
	// lease new buffers into the same rows (DESIGN §15).
	e.reclaimLeases(int(f.Slot))
	e.releaseSlot(int(f.Slot))
	// Recycle the state only after every read above; late completions for
	// this frame are filtered by the (slot, id) check in onCompletion and
	// never touch a recycled frameState (DESIGN §14).
	e.releaseFrameState(f)
	select {
	case e.results <- res:
	default: // consumer too slow; drop the report, not the pipeline
	}
	e.tryAdmitPending()
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
// word is zero a new frame may claim the slot and start setting flags,
// which a late clear would wipe.
func (e *Engine) releaseSlot(slot int) {
	for sym := range e.rxSeen[slot] {
		for a := range e.rxSeen[slot][sym] {
			e.rxSeen[slot][sym][a].Store(false)
		}
	}
	e.slotOwner[slot].Store(0)
}

// reapStale abandons frames that stopped making progress (lost packets).
func (e *Engine) reapStale(now time.Time) {
	frameTimeout := e.opts.FrameTimeout
	for s := range e.frameBySlot {
		if f := e.frameBySlot[s]; f != nil && now.Sub(f.firstPkt) > frameTimeout {
			e.drops.Add(1)
			e.finishFrame(f, true)
		}
	}
	for s := range e.pending {
		p := &e.pending[s]
		if !p.used || now.Sub(p.first) <= frameTimeout {
			continue
		}
		p.used = false
		e.pendingCnt--
		p.msgs = p.msgs[:0]
		e.drops.Add(1)
		// The pending frame claimed its buffer slot at acceptPacket; free
		// it so later frames hashing to this slot are not ghosted forever
		// (the old map-based path leaked the slot here), and report the
		// drop like any other abandoned frame. Its buffered packets hold
		// leases that no FFT task will ever consume — sweep them first.
		e.reclaimLeases(s)
		e.releaseSlot(s)
		e.met.FramesDropped.Add(1)
		if e.recorder {
			// Never-admitted frame: no task ever ran, so the post-mortem
			// is the empty record plus the gauges — still enough to see
			// an admission stall (free-list at zero, deep RX queue).
			rec := obs.FrameRec{Frame: p.id, Dropped: true,
				FirstPktNS: e.stamp(p.first)}
			e.captureIncident(&rec, obs.IncidentDrop,
				e.met.SeqGaps.Load(), e.met.SeqLate.Load(), e.met.FECRecovered.Load())
		}
		select {
		case e.results <- FrameResult{Frame: p.id, Dropped: true, FirstPkt: p.first}:
		default: // consumer too slow; drop the report, not the pipeline
		}
	}
	for i := range e.ghosts {
		if g := &e.ghosts[i]; g.used && now.Sub(g.t) > frameTimeout {
			e.expireGhost(g)
		}
	}
}
