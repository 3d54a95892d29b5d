package sim

import (
	"container/heap"

	"repro/internal/frame"
	"repro/internal/queue"
	"repro/internal/sched"
)

// Admission states of a simulated frame, as the engine's manager sees it.
const (
	unseen   = iota // no packet landed yet
	pending         // packets landed, admission gate closed
	admitted        // live in the frame DAG
)

// simFrame is one virtual frame: its DAG state plus the virtual times
// the Result reports.
type simFrame struct {
	sched.Frame
	state int
	held  []int // symbols that landed while pending, replayed on admission

	arrivalT, firstPktT, startT               float64
	pilotDoneT, zfDoneT, decodeDoneT, txDoneT float64

	// Per-block first-dispatch and last-completion times (Fig. 13a).
	blockStart, blockEnd [queue.NumTaskTypes]float64
	blockStarted         [queue.NumTaskTypes]bool
}

// simState drives a sched.Sched from an event heap: symbol arrivals feed
// it packets, idle workers take its released tasks in their poll order,
// and each task completes after its modelled cost.
type simState struct {
	c     Config
	d     *sched.Sched
	tc    taskCosts
	symUS float64
	// span is the subcarriers a block task type's blocks cover: the used
	// ones for demod, every data subcarrier for precode; 0 otherwise.
	span [queue.NumTaskTypes]int

	events  eventHeap
	frames  []simFrame
	pending []int // frames waiting for the admission gate, oldest first
	ready   [queue.NumTaskTypes][]queue.Msg
	idle    []int // idle worker ids

	now float64
	res *Result
}

func newSimState(c Config, d *sched.Sched) *simState {
	s := &simState{
		c:      c,
		d:      d,
		tc:     c.costs(),
		symUS:  float64(frame.SymbolDuration.Nanoseconds()) / 1e3,
		frames: make([]simFrame, c.Frames),
		res: &Result{
			BlockComputeMS: map[queue.TaskType]float64{},
			BlockMoveMS:    map[queue.TaskType]float64{},
		},
	}
	s.span[queue.TaskDemod] = c.Frame.UsedSubcarriers()
	s.span[queue.TaskPrecode] = c.Frame.DataSubcarriers
	for w := 0; w < c.Workers; w++ {
		s.idle = append(s.idle, w)
	}
	for f := range s.frames {
		s.frames[f].Frame = d.NewFrame()
	}
	return s
}

func (s *simState) run() *Result {
	// Every pilot and uplink symbol's packets land at the end of the
	// symbol; downlink symbols need no fronthaul arrival.
	nSym := s.c.Frame.NumSymbols()
	frameDur := float64(nSym) * s.symUS
	for f := range s.frames {
		fr := &s.frames[f]
		fr.arrivalT = float64(f) * frameDur
		for sym := 0; sym < nSym; sym++ {
			if k := s.c.Frame.SymbolAt(sym); k == frame.Pilot || k == frame.Uplink {
				heap.Push(&s.events, event{
					at: fr.arrivalT + float64(sym+1)*s.symUS, frame: f, sym: sym, worker: -1,
				})
			}
		}
	}
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(event)
		s.now = ev.at
		if ev.worker < 0 {
			s.onArrival(ev.frame, ev.sym)
		} else {
			s.idle = append(s.idle, ev.worker)
			fr := &s.frames[ev.msg.Frame]
			fr.blockEnd[ev.msg.Type] = s.now
			s.complete(fr, ev.msg)
		}
		s.drain()
		s.assign()
	}
	// Collect latencies. A frame that never completed (e.g. a pipeline
	// allocation that starved a block) marks the run as not keeping up.
	complete := true
	for f := range s.frames {
		fr := &s.frames[f]
		if fr.Remaining != 0 {
			complete = false
		}
		end := fr.decodeDoneT
		if s.c.Frame.NumUplink() == 0 {
			end = fr.txDoneT
		}
		s.res.FrameLatencyUS = append(s.res.FrameLatencyUS, end-fr.arrivalT)
	}
	last := &s.frames[len(s.frames)-1]
	s.res.BlockSpanUS = map[queue.TaskType]float64{}
	for t := queue.TaskType(0); t < queue.NumTaskTypes; t++ {
		if last.blockStarted[t] {
			s.res.BlockSpanUS[t] = last.blockEnd[t] - last.blockStart[t]
		}
	}
	s.res.QueueDelayUS = last.startT - last.firstPktT
	s.res.PilotDoneUS = last.pilotDoneT - last.arrivalT
	s.res.ZFDoneUS = last.zfDoneT - last.arrivalT
	s.res.DecodeDoneUS = last.decodeDoneT - last.arrivalT
	// KeepsUp: every frame completed and latency does not grow from the
	// middle of the run to the end.
	n := len(s.res.FrameLatencyUS)
	if n >= 4 {
		mid := s.res.FrameLatencyUS[n/2]
		lastL := s.res.FrameLatencyUS[n-1]
		s.res.KeepsUp = complete && lastL-mid < 0.10*frameDur*float64(n-1-n/2)+1
	} else {
		s.res.KeepsUp = complete
	}
	return s.res
}

// onArrival lands one symbol's packets, as the engine's onRX does packet
// by packet: the frame's first packet admits it if the gate is open and
// otherwise parks it, and a parked frame's packets are held and retried.
func (s *simState) onArrival(f, sym int) {
	fr := &s.frames[f]
	switch fr.state {
	case unseen:
		fr.firstPktT = s.now
		if !s.d.Admissible() {
			fr.state = pending
			fr.held = append(fr.held, sym)
			s.pending = append(s.pending, f)
			return
		}
		s.admit(f)
	case pending:
		fr.held = append(fr.held, sym)
		s.tryAdmit()
		return
	}
	s.arrive(fr, sym)
}

// arrive feeds every antenna's packet of sym to the DAG.
func (s *simState) arrive(fr *simFrame, sym int) {
	for a := 0; a < s.c.Frame.Antennas; a++ {
		s.d.Arrive(&fr.Frame, sym, a)
	}
}

// admit starts frame f in the DAG and replays its held symbols.
func (s *simState) admit(f int) {
	fr := &s.frames[f]
	fr.state = admitted
	fr.startT = s.now
	s.d.Admit(&fr.Frame, uint32(f), f)
	for _, sym := range fr.held {
		s.arrive(fr, sym)
	}
}

// tryAdmit admits the oldest parked frame if the gate is open, at the
// points the engine's manager tries.
func (s *simState) tryAdmit() {
	if len(s.pending) == 0 || !s.d.Admissible() {
		return
	}
	f := s.pending[0]
	s.pending = s.pending[1:]
	s.admit(f)
}

// complete hands a finished task message to the DAG and stamps the
// milestones it reached. The simulated channel never repeats, so ZF is
// always a recompute.
func (s *simState) complete(fr *simFrame, m queue.Msg) {
	s.res.Tasks[m.Type] += int(m.Batch)
	ev := s.d.Complete(&fr.Frame, m)
	if ev&sched.PilotsDone != 0 {
		fr.pilotDoneT = s.now
		s.d.ReleaseZF(&fr.Frame, false)
	}
	if ev&sched.ZFDone != 0 {
		fr.zfDoneT = s.now
	}
	if ev&sched.DecodeDone != 0 {
		fr.decodeDoneT = s.now
	}
	if ev&sched.TXDone != 0 {
		fr.txDoneT = s.now
	}
	if ev&sched.FrameDone != 0 {
		s.d.Finish()
	}
	s.tryAdmit()
}

// drain moves released tasks to the ready queues. Downlink packets go out
// on the engine's network thread, not a worker: they complete at once.
func (s *simState) drain() {
	for {
		m, ok := s.d.Next()
		if !ok {
			return
		}
		if m.Type == queue.TaskPacketTX {
			s.complete(&s.frames[m.Frame], m)
			continue
		}
		s.ready[m.Type] = append(s.ready[m.Type], m)
	}
}

// assign hands ready tasks to idle workers. Every idle worker is offered
// work according to its own poll order; workers whose queues are all
// empty stay idle.
func (s *simState) assign() {
	polls := s.d.Polls()
	keep := s.idle[:0]
	for _, w := range s.idle {
		m, ok := s.take(polls[w])
		if !ok {
			keep = append(keep, w)
			continue
		}
		fr := &s.frames[m.Frame]
		if !fr.blockStarted[m.Type] {
			fr.blockStarted[m.Type] = true
			fr.blockStart[m.Type] = s.now
		}
		units := float64(m.Batch)
		if q := s.span[m.Type]; q > 0 {
			// A demod or precode block covers DemodBlockSize
			// subcarriers, fewer in the symbol's last block.
			b := s.c.Frame.DemodBlockSize
			units = float64(min(b, q-int(m.TaskIdx)*b))
		}
		comp := s.tc.compute[m.Type] * units
		move := s.tc.move[m.Type] * units
		sync := s.tc.perMsg
		s.res.ComputeMS += comp / 1000
		s.res.MoveMS += move / 1000
		s.res.SyncMS += sync / 1000
		s.res.BlockComputeMS[m.Type] += comp / 1000
		s.res.BlockMoveMS[m.Type] += move / 1000
		heap.Push(&s.events, event{at: s.now + comp + move + sync, worker: w, msg: m})
	}
	s.idle = keep
}

// take dequeues the first ready task in poll order.
func (s *simState) take(order []queue.TaskType) (queue.Msg, bool) {
	for _, t := range order {
		if q := s.ready[t]; len(q) > 0 {
			s.ready[t] = q[1:]
			return q[0], true
		}
	}
	return queue.Msg{}, false
}
