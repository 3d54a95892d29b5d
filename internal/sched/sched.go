// Package sched is the frame DAG of Agora's manager (paper §3.2–3.4): the
// per-frame task counters, the rule for which tasks each completion
// releases, the frame-admission predicate and the workers' queue-poll
// orders. It holds no clock, goroutine or lock. internal/core drives it
// from its lock-free queues and internal/sim from a discrete-event heap
// with modelled task costs, so the engine and the simulator run one
// schedule.
//
// A driver owns one Sched and one Frame per in-flight frame. Every call
// that can release work (Admit, Arrive, ReleaseZF, Complete) appends the
// released task messages to the Sched's FIFO, which the driver drains
// with Next. Calls may nest inside a drain — the engine completes tasks
// while a full task queue blocks a release — because the FIFO only
// appends behind unread entries and rewinds once empty.
package sched

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/queue"
)

// Mode selects the scheduling policy.
type Mode int

// Scheduling modes.
const (
	// DataParallel is Agora's policy: every worker can run every task
	// type, and all workers gang up on the earliest available frame.
	DataParallel Mode = iota
	// PipelineParallel is the BigStation-style baseline: workers are
	// statically partitioned into per-block groups.
	PipelineParallel
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == DataParallel {
		return "data-parallel"
	}
	return "pipeline-parallel"
}

// Params are the scheduling knobs beside the frame geometry.
type Params struct {
	Mode    Mode
	Workers int
	// StaleDLSymbols lets a frame's first n downlink symbols be precoded
	// with the previous frame's precoder (§3.4.2).
	StaleDLSymbols int
}

// Event is the set of frame milestones one call reached.
type Event uint8

// Milestones.
const (
	// PilotsDone: every pilot FFT completed. The driver makes the
	// coherence-cache decision and must call ReleaseZF.
	PilotsDone Event = 1 << iota
	// ZFDone: every ZF group completed; the demod and precode tasks that
	// waited on it were released.
	ZFDone
	DecodeDone // every uplink code block decoded
	FirstTX    // the frame's first downlink packet was sent
	TXDone     // every downlink packet was sent
	FrameDone  // the frame's last task completed: call Finish
)

// Sched is one engine's (or one simulation's) scheduler state.
type Sched struct {
	mode      Mode
	workers   int
	staleSyms int
	polls     [][]queue.TaskType

	kinds         []frame.SymbolType // per symbol
	dlRank        []int              // per symbol: position among downlink symbols
	m, k          int                // antennas, users
	groups        int                // ZF groups
	demodBlocks   int                // demod tasks per uplink symbol
	precodeBlocks int                // precode tasks per downlink symbol
	fftBatch      int
	zfBatch       int
	tasks         [queue.NumTaskTypes]int // per frame
	total         int                     // tasks per frame

	out  []queue.Msg // released, not yet taken by Next
	head int

	outstanding int // tasks released and not yet completed
	live        int // admitted, unfinished frames
	lastZF      struct {
		id, slot uint32
		valid    bool
	}
}

// Frame is one in-flight frame's DAG state. Allocate it with NewFrame and
// start it with Admit; Admit resets every counter, so a Frame may be
// recycled across frames.
type Frame struct {
	ID        uint32
	Slot      uint32
	Remaining int // tasks not yet completed

	pilotDone, zfDone, decodeDone, txDone int
	fftDone, encodeDone                   []int      // per symbol
	blockDone                             []int      // per symbol: demod or precode blocks done
	blockEnq                              []bool     // per symbol: its blocks were released
	fftPend                               [][]uint16 // per symbol: arrived, not yet released antennas
	arrivals                              []int      // per symbol: packets seen
	gotPkt                                [][]bool   // per symbol/antenna

	// Stale-precoder eligibility (§3.4.2): the previous frame's precoder,
	// in slot staleSlot, may precode the leading downlink symbols.
	stale     bool
	staleSlot uint32
}

// New derives the frame DAG of cfg (validated, with any batching
// adjustment already applied) under p.
func New(cfg *frame.Config, p Params) (*Sched, error) {
	if p.Workers < 1 {
		return nil, fmt.Errorf("sched: need >= 1 worker, got %d", p.Workers)
	}
	if p.Mode == PipelineParallel && p.Workers < 4 {
		return nil, fmt.Errorf("sched: pipeline-parallel mode needs >= 4 workers, got %d", p.Workers)
	}
	n := cfg.NumSymbols()
	s := &Sched{
		mode:          p.Mode,
		workers:       p.Workers,
		staleSyms:     p.StaleDLSymbols,
		kinds:         make([]frame.SymbolType, n),
		dlRank:        make([]int, n),
		m:             cfg.Antennas,
		k:             cfg.Users,
		groups:        cfg.ZFGroups(),
		demodBlocks:   cfg.DemodBlocks(),
		precodeBlocks: cfg.PrecodeBlocks(),
		fftBatch:      cfg.FFTBatch,
		zfBatch:       cfg.ZFBatch,
	}
	s.tasks[queue.TaskZF] = s.groups
	dl := 0
	for sym := range s.kinds {
		kind := cfg.SymbolAt(sym)
		s.kinds[sym], s.dlRank[sym] = kind, dl
		switch kind {
		case frame.Pilot:
			s.tasks[queue.TaskPilotFFT] += s.m
		case frame.Uplink:
			s.tasks[queue.TaskFFT] += s.m
			s.tasks[queue.TaskDemod] += s.demodBlocks
			s.tasks[queue.TaskDecode] += s.k
		case frame.Downlink:
			dl++
			s.tasks[queue.TaskEncode] += s.k
			s.tasks[queue.TaskPrecode] += s.precodeBlocks
			s.tasks[queue.TaskIFFT] += s.m
			s.tasks[queue.TaskPacketTX] += s.m
		}
	}
	for _, c := range s.tasks {
		s.total += c
	}
	s.out = make([]queue.Msg, 0, s.total)
	s.polls = pollOrders(cfg, p)
	return s, nil
}

// Tasks returns how many tasks of type t one frame runs (a batched
// message carries several).
func (s *Sched) Tasks(t queue.TaskType) int { return s.tasks[t] }

// Polls returns each worker's queue-poll order.
func (s *Sched) Polls() [][]queue.TaskType { return s.polls }

// Admissible is the frame-admission gate: the data-parallel policy holds
// the next frame back until the workers are about to go idle (§3.4.1
// inter-frame pipelining); the pipeline-parallel variant admits every
// frame at once.
func (s *Sched) Admissible() bool {
	return s.mode == PipelineParallel || s.live == 0 || s.outstanding < s.workers
}

// NewFrame allocates a Frame sized for this geometry.
func (s *Sched) NewFrame() Frame {
	n := len(s.kinds)
	f := Frame{
		fftDone:    make([]int, n),
		encodeDone: make([]int, n),
		blockDone:  make([]int, n),
		blockEnq:   make([]bool, n),
		arrivals:   make([]int, n),
		fftPend:    make([][]uint16, n),
		gotPkt:     make([][]bool, n),
	}
	for sym := range f.fftPend {
		f.fftPend[sym] = make([]uint16, 0, s.m)
		f.gotPkt[sym] = make([]bool, s.m)
	}
	return f
}

// Admit starts frame id in buffer slot on f and releases its downlink
// encode tasks: the MAC payload is resident from admission on.
func (s *Sched) Admit(f *Frame, id uint32, slot int) {
	f.ID, f.Slot = id, uint32(slot)
	f.Remaining = s.total
	f.pilotDone, f.zfDone, f.decodeDone, f.txDone = 0, 0, 0, 0
	clear(f.fftDone)
	clear(f.encodeDone)
	clear(f.blockDone)
	clear(f.blockEnq)
	clear(f.arrivals)
	for sym := range f.fftPend {
		f.fftPend[sym] = f.fftPend[sym][:0]
		clear(f.gotPkt[sym])
	}
	// Only the immediately preceding frame's precoder is fresh enough,
	// and it must live in a different slot.
	f.stale = s.staleSyms > 0 && s.lastZF.valid &&
		s.lastZF.id+1 == id && s.lastZF.slot != f.Slot
	f.staleSlot = s.lastZF.slot
	s.live++
	for sym, kind := range s.kinds {
		if kind == frame.Downlink {
			for u := 0; u < s.k; u++ {
				s.release(f, queue.TaskEncode, sym, u, 1, 0)
			}
		}
	}
}

// Finish retires an admitted frame, completed or abandoned. Tasks of an
// abandoned frame still in flight are retired by Complete(nil, m).
func (s *Sched) Finish() { s.live-- }

// Idle reports that no frame is admitted and no released task is waiting
// in the FIFO or outstanding: the state a driver returns to once every
// frame has finished and every task has completed.
func (s *Sched) Idle() bool { return s.live == 0 && s.outstanding == 0 && s.head == len(s.out) }

// Arrive records antenna ant's packet of pilot or uplink symbol sym and
// releases FFT work in runs of up to FFTBatch consecutive antennas
// (arrival order is near-sequential; what is left flushes once every
// antenna of the symbol arrived). A duplicate packet, or one for a
// symbol that carries no fronthaul data, returns false and releases
// nothing: processing an antenna twice would corrupt the accounting.
func (s *Sched) Arrive(f *Frame, sym, ant int) bool {
	kind := s.kinds[sym]
	if (kind != frame.Pilot && kind != frame.Uplink) || f.gotPkt[sym][ant] {
		return false
	}
	f.gotPkt[sym][ant] = true
	f.arrivals[sym]++
	t := queue.TaskFFT
	if kind == frame.Pilot {
		t = queue.TaskPilotFFT
	}
	pend := append(f.fftPend[sym], uint16(ant))
	force := f.arrivals[sym] == s.m
	// Consume by index rather than re-slicing the front: pend recycles with
	// the Frame, and advancing its base pointer would strand capacity and
	// make later appends reallocate.
	i := 0
	for len(pend)-i >= s.fftBatch || (force && len(pend)-i > 0) {
		n := min(s.fftBatch, len(pend)-i)
		run := 1 // the next run of contiguous antennas
		for run < n && pend[i+run] == pend[i+run-1]+1 {
			run++
		}
		s.release(f, t, sym, int(pend[i]), run, 0)
		i += run
	}
	f.fftPend[sym] = pend[:copy(pend, pend[i:])]
	return true
}

// ReleaseZF releases f's ZF groups, ZFBatch per message; the driver calls
// it once, on PilotsDone. cached marks every task a coherence-cache copy
// (Msg.Aux = 1).
func (s *Sched) ReleaseZF(f *Frame, cached bool) {
	var aux uint64
	if cached {
		aux = 1
	}
	for lo := 0; lo < s.groups; lo += s.zfBatch {
		s.release(f, queue.TaskZF, 0, lo, min(s.zfBatch, s.groups-lo), aux)
	}
}

// Complete accounts the completed task message m of frame f, releases
// what it unblocks and reports the milestones it reached. f is nil for a
// frame already abandoned: its task only leaves the outstanding count.
func (s *Sched) Complete(f *Frame, m queue.Msg) Event {
	n := int(m.Batch)
	s.outstanding -= n
	if f == nil {
		return 0
	}
	f.Remaining -= n
	sym := int(m.Symbol)
	var ev Event
	switch m.Type {
	case queue.TaskPilotFFT:
		f.pilotDone += n
		if f.pilotDone == s.tasks[queue.TaskPilotFFT] {
			ev |= PilotsDone
		}
	case queue.TaskZF:
		f.zfDone += n
		if f.zfDone == s.groups {
			ev |= ZFDone
			s.lastZF.id, s.lastZF.slot, s.lastZF.valid = f.ID, f.Slot, true
			for sym, kind := range s.kinds {
				if (kind == frame.Uplink && f.fftDone[sym] == s.m) ||
					(kind == frame.Downlink && f.encodeDone[sym] == s.k) {
					s.releaseBlocks(f, sym, 0)
				}
			}
		}
	case queue.TaskFFT:
		f.fftDone[sym] += n
		if f.fftDone[sym] == s.m && f.zfDone == s.groups {
			s.releaseBlocks(f, sym, 0)
		}
	case queue.TaskDemod:
		f.blockDone[sym] += n
		if f.blockDone[sym] == s.demodBlocks {
			for u := 0; u < s.k; u++ {
				s.release(f, queue.TaskDecode, sym, u, 1, 0)
			}
		}
	case queue.TaskDecode:
		f.decodeDone += n
		if f.decodeDone == s.tasks[queue.TaskDecode] {
			ev |= DecodeDone
		}
	case queue.TaskEncode:
		f.encodeDone[sym] += n
		if f.encodeDone[sym] == s.k {
			switch {
			case f.zfDone == s.groups:
				s.releaseBlocks(f, sym, 0)
			case f.stale && s.dlRank[sym] < s.staleSyms:
				// §3.4.2: precode the leading downlink symbols with the
				// previous frame's precoder so the RRU receives them
				// before this frame's pilots are even processed.
				s.releaseBlocks(f, sym, uint64(f.staleSlot)+1)
			}
		}
	case queue.TaskPrecode:
		f.blockDone[sym] += n
		if f.blockDone[sym] == s.precodeBlocks {
			for a := 0; a < s.m; a += s.fftBatch {
				s.release(f, queue.TaskIFFT, sym, a, min(s.fftBatch, s.m-a), 0)
			}
		}
	case queue.TaskIFFT:
		// One TX message per completed antenna, at once.
		for i := 0; i < n; i++ {
			s.release(f, queue.TaskPacketTX, sym, int(m.TaskIdx)+i, 1, 0)
		}
	case queue.TaskPacketTX:
		if f.txDone == 0 {
			ev |= FirstTX
		}
		f.txDone += n
		if f.txDone == s.tasks[queue.TaskPacketTX] {
			ev |= TXDone
		}
	}
	if f.Remaining == 0 {
		ev |= FrameDone
	}
	return ev
}

// Next takes the oldest released task message off the FIFO.
func (s *Sched) Next() (queue.Msg, bool) {
	if s.head == len(s.out) {
		s.out, s.head = s.out[:0], 0
		return queue.Msg{}, false
	}
	m := s.out[s.head]
	s.head++
	return m, true
}

// releaseBlocks releases every subcarrier-block task of one data symbol,
// once: DemodBlockSize subcarriers per task in both directions, demod on
// an uplink symbol and precode on a downlink one (§3.4). aux selects the
// precoder: 0 is the frame's own, otherwise slot aux-1's (the
// stale-precoder path); demod passes 0.
func (s *Sched) releaseBlocks(f *Frame, sym int, aux uint64) {
	if f.blockEnq[sym] {
		return
	}
	f.blockEnq[sym] = true
	t, n := queue.TaskDemod, s.demodBlocks
	if s.kinds[sym] == frame.Downlink {
		t, n = queue.TaskPrecode, s.precodeBlocks
	}
	for blk := 0; blk < n; blk++ {
		s.release(f, t, sym, blk, 1, aux)
	}
}

// release appends one task message of n tasks to the FIFO.
func (s *Sched) release(f *Frame, t queue.TaskType, sym, idx, n int, aux uint64) {
	s.out = append(s.out, queue.Msg{
		Type: t, Frame: f.ID, Slot: f.Slot, Symbol: uint16(sym),
		TaskIdx: uint16(idx), Batch: uint8(n), Aux: aux,
	})
	s.outstanding += n
}
