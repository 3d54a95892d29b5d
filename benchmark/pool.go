package main

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/channel"
	"repro/internal/fronthaul"
	"repro/internal/workload"
)

// poolFrame is one pre-generated frame: its packets in emission order
// (private copies, re-stamped in place on every replay) and the bits the
// users transmitted, truth[user][symbol] (nil off uplink symbols).
type poolFrame struct {
	pkts  [][]byte
	truth [][][]byte
}

// cellPool is one cell's replayable traffic. The generator is kept for
// its channel matrix (downlink user-side receive) and CompareUplink.
type cellPool struct {
	gen    *workload.Generator
	frames []poolFrame
	emitNS int64 // total time inside Generator.EmitFrame
}

// buildPool draws w.pool distinct frames for one cell. The program under
// test only ever sees these bytes; the seed decides every one of them.
func buildPool(w *spec, cell int, seed int64) (*cellPool, error) {
	gen, err := workload.NewGenerator(w.cfg, channel.Rayleigh, w.snr, seed+int64(cell))
	if err != nil {
		return nil, err
	}
	gen.SetCell(uint8(cell))
	if err := gen.SetFECParity(w.fecParity); err != nil {
		return nil, err
	}
	p := &cellPool{gen: gen, frames: make([]poolFrame, w.pool)}
	for i := range p.frames {
		pf := &p.frames[i]
		t0 := time.Now()
		err := gen.EmitFrame(uint32(i), func(pkt []byte) error {
			pf.pkts = append(pf.pkts, append([]byte(nil), pkt...))
			return nil
		})
		p.emitNS += time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("emit pool frame %d: %w", i, err)
		}
		// TruthBits rows are overwritten by the next EmitFrame: copy.
		pf.truth = make([][][]byte, len(gen.TruthBits))
		for u, syms := range gen.TruthBits {
			pf.truth[u] = make([][]byte, len(syms))
			for s, bits := range syms {
				if bits != nil {
					pf.truth[u][s] = append([]byte(nil), bits...)
				}
			}
		}
	}
	return p, nil
}

// lane is the replay state of one cell's stream into one rig: monotone
// frame ids and sequence numbers (an engine wedges on a reused frame id
// while a rejected frame waits out FrameTimeout), and the send time of
// every frame still in flight.
type lane struct {
	pool *cellPool
	send func([]byte) error
	next uint32
	seq  uint64
	// oldest is the lowest frame id not yet answered and open has bit
	// id%sentRing set for every unanswered id in [oldest, next).
	oldest uint32
	open   uint32
	sentAt [sentRing]time.Time
	// dueAt is the paced loop's schedule slot of each in-flight frame.
	dueAt [sentRing]time.Time
}

// sentRing is the size of the per-lane rings indexed by frame id.
const sentRing = 16

// engineSlots is the rigs' core.Options.Slots (the engine's default): the
// engine buffers frame id f in slot f%Slots and bounces every packet of a
// frame whose slot is still held. One worker goroutine losing its CPU for a millisecond holds a
// frame's last task that long, so the replay never sends id f+8 before f
// has answered, whatever the in-flight window allows.
const engineSlots = 8

func (l *lane) slotFree() bool { return l.next-l.oldest < engineSlots }

func (l *lane) inflight() int { return bits.OnesCount32(l.open) }

// answered marks frame id as no longer in flight.
func (l *lane) answered(id uint32) {
	l.open &^= 1 << (id % sentRing)
	for l.oldest < l.next && l.open&(1<<(l.oldest%sentRing)) == 0 {
		l.oldest++
	}
}

// replayCost accumulates what the harness itself spends feeding frames.
type replayCost struct {
	restampNS, sendNS, pkts int64
}

// sendFrame replays the lane's next pool frame: re-stamp Frame and Seq
// in a first pass, then hand every packet to the sender. It returns the
// frame id; the latency clock starts when the first packet is sent.
func (l *lane) sendFrame(rc *replayCost) (uint32, error) {
	id := l.next
	pf := &l.pool.frames[int(id)%len(l.pool.frames)]
	t0 := time.Now()
	var h fronthaul.Header
	for _, pkt := range pf.pkts {
		if err := h.Decode(pkt); err != nil {
			return id, fmt.Errorf("pool packet: %w", err)
		}
		l.seq++
		h.Frame, h.Seq = id, l.seq
		h.Encode(pkt)
	}
	t1 := time.Now()
	for _, pkt := range pf.pkts {
		if err := l.send(pkt); err != nil {
			return id, err
		}
	}
	t2 := time.Now()
	rc.restampNS += t1.Sub(t0).Nanoseconds()
	rc.sendNS += t2.Sub(t1).Nanoseconds()
	rc.pkts += int64(len(pf.pkts))
	l.sentAt[id%sentRing] = t1
	l.open |= 1 << (id % sentRing)
	l.next++
	return id, nil
}
