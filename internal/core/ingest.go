package core

// The zero-copy, loss-tolerant RX path (DESIGN §15).
//
// Zero-copy leases: instead of memcpy-ing every fronthaul payload into
// an engine buffer, the network thread parses the 64-byte header in place
// on the transport buffer and *leases* the packed 12-bit IQ payload to the
// engine through a per-(slot, symbol, antenna) lease table. The FFT
// worker consumes the payload straight off the wire bytes (the fused
// fft.ForwardIQ12 front end reads packed IQ) and releases the buffer
// back to the transport at fftDone. Ownership rule, extending the
// DESIGN §14 arena model:
//
//	netRX (single producer) stores a lease and marks it FULL after
//	winning the rxSeen claim; exactly one consumer then CASes
//	FULL→BUSY — either the FFT task that computes on it, or the
//	manager's teardown sweep (reclaimLeases) for frames that die
//	before their FFTs run — and frees the buffer. A torn-down lease
//	makes the FFT task a no-op; its completion message still flows.
//
// Injected packets (InjectPacket) and FEC-reconstructed payloads have no
// transport buffer: they are copied into engine-pool buffers and leased
// the same way.
//
// FEC: with Options.FECParity = P, the RRU appends P Reed-Solomon
// parity packets (Header.Antenna = M..M+P-1) to each pilot/uplink
// symbol's M-packet burst. The receive path folds every arriving
// payload into per-symbol syndrome accumulators (fronthaul.FEC);
// as soon as nData+nParity ≥ M with data missing, the lost payloads
// are reconstructed into engine-pool buffers and injected through the
// normal rxSeen/lease/rxQ flow, so a frame meets its deadline despite up
// to P lost packets per symbol.
// All FEC state is owned by the single RX goroutine — no locks.

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/cf"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/queue"
)

// Lease lifecycle: EMPTY -> (netRX stores) FULL -> (consumer claims)
// BUSY -> (consumer frees) EMPTY.
const (
	leaseEmpty uint32 = iota
	leaseFull
	leaseBusy
)

// rxLease hands one received payload from the network thread to its FFT
// task without copying. buf is the transport-owned packet buffer the
// payload points into; buf == nil means pay is an engine-pool buffer
// (injected or FEC-reconstructed payloads).
type rxLease struct {
	state atomic.Uint32
	pay   []byte
	buf   []byte
}

// fecSym accumulates one symbol burst's Reed-Solomon syndromes.
type fecSym struct {
	syn     [][]byte // [P] payload-sized accumulators
	dataGot []bool   // [M]
	parGot  []bool   // [P]
	nData   int
	nPar    int
	// done: burst complete (all data arrived or reconstructed); further
	// folds would corrupt nothing but are wasted work.
	done bool
}

// fecSlot is one buffer slot's FEC state, lazily re-zeroed when the
// slot is claimed by a new frame (owner = frame id + 1).
type fecSlot struct {
	owner uint32
	syms  []fecSym
}

// rxBatchSize bounds one RecvBatch drain. Sized to cover a full
// antenna burst of the paper's 64-antenna cell in one wakeup.
const rxBatchSize = 64

// initIngest allocates the RX-path state NewEngine defers here: the
// lease table, the payload pool and the per-slot FEC accumulators
// (FECParity > 0).
func (e *Engine) initIngest() error {
	cfg := &e.cfg
	e.payloadLen = cfg.SamplesPerSymbol() * cf.BytesPerIQ
	e.rxLease = make([][][]rxLease, e.opts.Slots)
	for s := range e.rxLease {
		e.rxLease[s] = make([][]rxLease, cfg.NumSymbols())
		for sym := range e.rxLease[s] {
			st := cfg.SymbolAt(sym)
			if st == frame.Pilot || st == frame.Uplink {
				e.rxLease[s][sym] = make([]rxLease, cfg.Antennas)
			}
		}
	}
	// The pool only backs injected and FEC-reconstructed payloads;
	// transport packets ride their own buffers. Capacity covers every
	// lease the engine can hold at once, so steady-state injection
	// allocates nothing.
	maxLeased := e.opts.Slots * (cfg.NumPilots() + cfg.NumUplink()) * cfg.Antennas
	e.rxFree = make(chan []byte, maxLeased+16)
	if e.opts.FECParity > 0 {
		fec, err := fronthaul.NewFEC(cfg.Antennas, e.opts.FECParity)
		if err != nil {
			return err
		}
		e.fec = fec
		e.fecRx = make([]fecSlot, e.opts.Slots)
		for s := range e.fecRx {
			syms := make([]fecSym, cfg.NumSymbols())
			for sym := range syms {
				st := cfg.SymbolAt(sym)
				if st != frame.Pilot && st != frame.Uplink {
					continue
				}
				syn := make([][]byte, e.opts.FECParity)
				for i := range syn {
					syn[i] = make([]byte, e.payloadLen)
				}
				syms[sym] = fecSym{
					syn:     syn,
					dataGot: make([]bool, cfg.Antennas),
					parGot:  make([]bool, e.opts.FECParity),
				}
			}
			e.fecRx[s].syms = syms
		}
		e.fecLost = make([]int, 0, e.opts.FECParity)
		e.fecRows = make([]int, 0, e.opts.FECParity)
		e.fecDst = make([][]byte, 0, e.opts.FECParity)
	}
	return nil
}

// getRxBuf pops a payload-sized pool buffer, allocating only before the
// free-list warms up.
func (e *Engine) getRxBuf() []byte {
	select {
	case b := <-e.rxFree:
		return b
	default:
		return make([]byte, e.payloadLen)
	}
}

// putRxBuf recycles a pool buffer; a full free-list drops it.
func (e *Engine) putRxBuf(b []byte) {
	if cap(b) < e.payloadLen {
		return
	}
	select {
	case e.rxFree <- b[:e.payloadLen]:
	default:
	}
}

// leaseStore publishes a payload for (slot, sym, ant). Only the RX
// goroutine calls it, after winning the rxSeen claim. A FULL lease here
// is a remnant of a reaped frame whose teardown sweep raced past an
// in-flight store; it is freed before being overwritten so no buffer
// leaks.
func (e *Engine) leaseStore(slot int, sym, ant uint16, pay, buf []byte) {
	l := &e.rxLease[slot][sym][ant]
	if l.state.CompareAndSwap(leaseFull, leaseBusy) {
		e.freeLeaseBuf(l)
	}
	l.pay = pay
	l.buf = buf
	l.state.Store(leaseFull)
}

// rxPayload hands a symbol-antenna payload to its FFT task by claiming
// the lease; a nil return means the frame was torn down and the buffer
// reclaimed — the task skips compute (its completion message still
// flows, and the dying frame's bookkeeping absorbs it).
func (e *Engine) rxPayload(slot int, sym, ant uint16) ([]byte, *rxLease) {
	l := &e.rxLease[slot][sym][ant]
	if !l.state.CompareAndSwap(leaseFull, leaseBusy) {
		return nil, nil
	}
	return l.pay, l
}

// releaseRx returns a claimed lease's buffer to its owner (transport or
// engine pool) and opens the lease for the slot's next frame.
func (e *Engine) releaseRx(l *rxLease) {
	e.freeLeaseBuf(l)
	l.state.Store(leaseEmpty)
}

// freeLeaseBuf frees the buffer of a BUSY lease. Caller transitions the
// state afterwards.
func (e *Engine) freeLeaseBuf(l *rxLease) {
	pay, buf := l.pay, l.buf
	l.pay, l.buf = nil, nil
	if buf != nil {
		e.tr.Release(buf)
	} else if pay != nil {
		e.putRxBuf(pay)
	}
}

// reclaimLeases frees every unconsumed lease of a slot. The manager
// calls it during frame teardown, BEFORE releaseSlot reopens the slot:
// frames that die with FFT tasks never run (timeouts, pending reaps)
// would otherwise strand their transport buffers in FULL leases.
func (e *Engine) reclaimLeases(slot int) {
	for sym := range e.rxLease[slot] {
		row := e.rxLease[slot][sym]
		for a := range row {
			l := &row[a]
			if l.state.CompareAndSwap(leaseFull, leaseBusy) {
				e.freeLeaseBuf(l)
				l.state.Store(leaseEmpty)
			}
		}
	}
}

// accountSeq maintains the loss counters from the per-sender sequence
// numbers (Seq 0 = unstamped legacy senders). Single RX goroutine, so
// the high-water mark is plain memory.
func (e *Engine) accountSeq(seq uint64) {
	if seq == 0 {
		return
	}
	if seq > e.rxSeqLast {
		if e.rxSeqLast != 0 && seq != e.rxSeqLast+1 {
			e.met.SeqGaps.Add(int64(seq - e.rxSeqLast - 1))
		}
		e.rxSeqLast = seq
	} else {
		e.met.SeqLate.Add(1)
	}
}

// enqueueRX notifies the manager of an accepted payload, spinning if
// the queue is momentarily full.
func (e *Engine) enqueueRX(frameID uint32, slot int, sym, ant uint16) {
	m := queue.Msg{
		Type:    queue.TaskPacketRX,
		Frame:   frameID,
		Slot:    uint32(slot),
		Symbol:  sym,
		TaskIdx: ant,
	}
	for !e.rxQ.TryEnqueue(m) {
		select {
		case <-e.stop:
			return
		default:
			runtime.Gosched()
		}
	}
}

// acceptPacket validates a packet, claims the frame's buffer slot, and
// either leases the payload in place (fromTransport) or copies it into a
// pool buffer (injected packets, whose caller reuses the backing array)
// and leases that. leased reports that the transport buffer's ownership
// moved to the lease table — the caller must NOT Release it.
func (e *Engine) acceptPacket(pkt []byte, fromTransport bool) (leased bool, err error) {
	var h fronthaul.Header
	if err := h.Decode(pkt); err != nil {
		return false, err
	}
	cfg := &e.cfg
	if int(h.Symbol) >= cfg.NumSymbols() {
		return false, fmt.Errorf("core: packet out of range: %v", h)
	}
	st := cfg.SymbolAt(int(h.Symbol))
	if st != frame.Pilot && st != frame.Uplink {
		return false, fmt.Errorf("core: unexpected RX for symbol type %c", st)
	}
	parity := false
	if int(h.Antenna) >= cfg.Antennas {
		if e.fec == nil || int(h.Antenna) >= cfg.Antennas+e.fec.ParityShards() {
			return false, fmt.Errorf("core: packet out of range: %v", h)
		}
		parity = true
	}
	if int(h.Samples) != cfg.SamplesPerSymbol() {
		return false, fmt.Errorf("core: bad sample count: %v", h)
	}
	e.accountSeq(h.Seq)
	slot := int(h.Frame) % e.opts.Slots
	owner := e.slotOwner[slot].Load()
	switch owner {
	case h.Frame + 1: // already ours
	case 0:
		if parity {
			// Parity never claims a fresh slot: it is emitted after the
			// burst's data, so under sane ordering data claims first. A
			// parity-only claim could strand the slot with no frameState
			// to reap it.
			return false, nil
		}
		// Snapshot the fronthaul counter baselines BEFORE publishing the
		// claim: admit reads them after observing slotOwner, so
		// the CAS release/acquire pair orders the stores. Captured here —
		// not at admission — because the RX goroutine may ingest an
		// entire burst (counting its gaps) before the manager pops the
		// first rxQ message.
		e.slotGapBase[slot].Store(e.met.SeqGaps.Load())
		e.slotLateBase[slot].Store(e.met.SeqLate.Load())
		e.slotFECBase[slot].Store(e.met.FECRecovered.Load())
		if !e.slotOwner[slot].CompareAndSwap(0, h.Frame+1) &&
			e.slotOwner[slot].Load() != h.Frame+1 {
			e.notifyGhost(h.Frame)
			return false, fmt.Errorf("core: slot %d contended", slot)
		}
	default:
		if parity {
			return false, nil
		}
		e.notifyGhost(h.Frame)
		return false, fmt.Errorf("core: slot %d busy with frame %d", slot, owner-1)
	}
	payload := fronthaul.Payload(pkt, &h)
	var fs *fecSym
	if e.fec != nil {
		fs = e.fecSymFor(slot, h.Frame, int(h.Symbol))
	}
	if parity {
		p := int(h.Antenna) - cfg.Antennas
		if fs.done || fs.parGot[p] {
			return false, nil // burst already complete, or duplicate
		}
		e.fec.AccumulateParity(fs.syn, p, payload)
		fs.parGot[p] = true
		fs.nPar++
		if fs.nData+fs.nPar >= cfg.Antennas {
			e.fecReconstruct(slot, h.Frame, h.Symbol, fs)
		}
		return false, nil
	}
	if !e.rxSeen[slot][h.Symbol][h.Antenna].CompareAndSwap(false, true) {
		return false, fmt.Errorf("core: duplicate packet %v", h)
	}
	if fromTransport {
		e.leaseStore(slot, h.Symbol, h.Antenna, payload, pkt)
		leased = true
	} else {
		buf := e.getRxBuf()
		copy(buf, payload)
		e.leaseStore(slot, h.Symbol, h.Antenna, buf, nil)
	}
	if fs != nil && !fs.done {
		e.fec.AccumulateData(fs.syn, int(h.Antenna), payload)
		fs.dataGot[h.Antenna] = true
		fs.nData++
		if fs.nData == cfg.Antennas {
			fs.done = true
		} else if fs.nData+fs.nPar >= cfg.Antennas {
			e.fecReconstruct(slot, h.Frame, h.Symbol, fs)
		}
	}
	e.enqueueRX(h.Frame, slot, h.Symbol, h.Antenna)
	return leased, nil
}

// fecSymFor returns the symbol's syndrome state, lazily re-zeroing the
// slot's accumulators the first time a new frame touches them. Callers
// guarantee slotOwner == frameID+1, so the epoch can't flip mid-burst.
func (e *Engine) fecSymFor(slot int, frameID uint32, sym int) *fecSym {
	fs := &e.fecRx[slot]
	if fs.owner != frameID+1 {
		for i := range fs.syms {
			s := &fs.syms[i]
			if s.syn == nil || (s.nData == 0 && s.nPar == 0 && !s.done) {
				continue
			}
			for _, row := range s.syn {
				clear(row)
			}
			clear(s.dataGot)
			clear(s.parGot)
			s.nData, s.nPar, s.done = 0, 0, false
		}
		fs.owner = frameID + 1
	}
	return &fs.syms[sym]
}

// fecReconstruct rebuilds the symbol's missing payloads from the
// syndromes and injects them through the normal accept flow (rxSeen
// claim, lease store, manager notification). Called the moment
// nData+nPar reaches M; the arrival that triggers it pays the O(P²·len)
// solve, every other packet only paid streaming accumulation.
func (e *Engine) fecReconstruct(slot int, frameID uint32, sym uint16, fs *fecSym) {
	lost := e.fecLost[:0]
	for a, got := range fs.dataGot {
		if !got {
			lost = append(lost, a)
		}
	}
	if len(lost) == 0 {
		fs.done = true
		return
	}
	rows := e.fecRows[:0]
	for p, got := range fs.parGot {
		if got {
			rows = append(rows, p)
		}
	}
	dst := e.fecDst[:0]
	for range lost {
		dst = append(dst, e.getRxBuf())
	}
	if err := e.fec.Reconstruct(dst, lost, rows, fs.syn); err != nil {
		for _, b := range dst {
			e.putRxBuf(b)
		}
		return
	}
	fs.done = true
	for i, a := range lost {
		fs.dataGot[a] = true
		fs.nData++
		if !e.rxSeen[slot][sym][a].CompareAndSwap(false, true) {
			// Unreachable on the single RX goroutine (lost ⇒ unseen), but
			// never leak the buffer if it ever fires.
			e.putRxBuf(dst[i])
			continue
		}
		e.leaseStore(slot, sym, uint16(a), dst[i], nil)
		e.met.FECRecovered.Add(1)
		e.enqueueRX(frameID, slot, sym, uint16(a))
	}
}

// runNetRX is the dedicated network receive thread (§4.3 uses two DPDK
// threads; a single goroutine saturates the in-process ring here). When
// the transport supports batched receives, one wakeup drains a whole
// burst.
func (e *Engine) runNetRX() {
	defer e.wg.Done()
	if e.opts.RealTime {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	if br, ok := e.tr.(fronthaul.BatchRecver); ok {
		pkts := make([][]byte, rxBatchSize)
		for {
			n, ok := br.RecvBatch(pkts)
			if !ok {
				return
			}
			for i := 0; i < n; i++ {
				e.ingest(pkts[i])
			}
		}
	}
	for {
		pkt, ok := e.tr.Recv()
		if !ok {
			return
		}
		e.ingest(pkt)
	}
}

// ingest routes one transport packet through acceptPacket and releases
// the buffer unless its ownership moved to the lease table.
func (e *Engine) ingest(pkt []byte) {
	leased, err := e.acceptPacket(pkt, true)
	if err != nil {
		e.drops.Add(1)
	}
	if !leased {
		e.tr.Release(pkt)
	}
}
