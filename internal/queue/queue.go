// Package queue provides the lock-free bounded MPMC ring queue Agora's
// threads synchronize through, carrying fixed 64-byte messages that fit in
// one cache line to minimize inter-core traffic (paper §3.2–3.3).
//
// The algorithm is Dmitry Vyukov's bounded MPMC queue: each cell carries a
// sequence number; producers claim a slot with a CAS on the enqueue
// cursor, consumers with a CAS on the dequeue cursor, and the sequence
// numbers mediate slot handoff without locks. The original Agora uses
// moodycamel's ConcurrentQueue for the same role.
package queue

import (
	"fmt"
	"sync/atomic"
)

// TaskType identifies the baseband block a message belongs to; it mirrors
// Figure 1(b) with the fusions of Table 2 applied.
type TaskType uint8

// Task types, in scheduler priority order (paper §3.3: workers poll queues
// in a statically determined order).
const (
	TaskPilotFFT TaskType = iota // FFT + channel estimation (fused, uplink pilots)
	TaskZF                       // zero-forcing precoder calculation
	TaskFFT                      // FFT of uplink data symbols
	TaskDemod                    // equalization + demodulation (fused)
	TaskDecode                   // LDPC decoding
	TaskEncode                   // LDPC encoding (downlink)
	TaskPrecode                  // modulation + precoding (fused, downlink)
	TaskIFFT                     // IFFT of downlink symbols
	TaskPacketTX                 // network send
	TaskPacketRX                 // network receive notification
	NumTaskTypes
)

// String implements fmt.Stringer.
func (t TaskType) String() string {
	names := [...]string{"PilotFFT", "ZF", "FFT", "Demod", "Decode",
		"Encode", "Precode", "IFFT", "PacketTX", "PacketRX"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("TaskType(%d)", uint8(t))
}

// Msg is the 64-byte message exchanged between the manager and workers: a
// task type plus buffer coordinates (frame slot, symbol, and a task index
// whose meaning depends on the type: antenna for FFT, subcarrier group for
// ZF/demod, user for decode/encode). Batch > 1 means the worker should
// process Batch consecutive task indices (paper §3.4 batching).
type Msg struct {
	Type    TaskType
	Batch   uint8
	Symbol  uint16
	TaskIdx uint16
	_pad0   uint16
	Frame   uint32
	Slot    uint32
	// Aux carries type-specific context (e.g. deadline ticks for TX).
	Aux uint64
	// T0/T1 are execution start/end stamps in nanoseconds since the
	// engine's epoch, written by the executing worker just before the
	// completion enqueue. The manager folds them into the per-frame SLO
	// attribution record (obs.FrameRec) without needing the trace rings,
	// which are only readable at quiescence. Zero on task (non-completion)
	// messages.
	T0, T1 int64
	_      [3]uint64 // pad to 64 bytes
}

// cell pairs a message with its sequence number.
type cell struct {
	seq atomic.Uint64
	msg Msg
}

// pad keeps hot cursors on separate cache lines.
type pad [8]uint64

// Q is a bounded lock-free MPMC queue of Msg.
type Q struct {
	mask    uint64
	cells   []cell
	_       pad
	enqueue atomic.Uint64
	_       pad
	dequeue atomic.Uint64
	_       pad
}

// New creates a queue with the given capacity (rounded up to a power of
// two, minimum 2).
func New(capacity int) *Q {
	n := 2
	for n < capacity {
		n <<= 1
	}
	q := &Q{mask: uint64(n - 1), cells: make([]cell, n)}
	for i := range q.cells {
		q.cells[i].seq.Store(uint64(i))
	}
	return q
}

// Cap returns the queue capacity.
func (q *Q) Cap() int { return len(q.cells) }

// TryEnqueue adds m if space is available, returning false on a full queue.
func (q *Q) TryEnqueue(m Msg) bool {
	pos := q.enqueue.Load()
	for {
		c := &q.cells[pos&q.mask]
		seq := c.seq.Load()
		switch {
		case seq == pos:
			if q.enqueue.CompareAndSwap(pos, pos+1) {
				c.msg = m
				c.seq.Store(pos + 1)
				return true
			}
			pos = q.enqueue.Load()
		case seq < pos:
			return false // full
		default:
			pos = q.enqueue.Load()
		}
	}
}

// TryDequeue removes the oldest message, returning ok=false on empty.
func (q *Q) TryDequeue() (Msg, bool) {
	pos := q.dequeue.Load()
	for {
		c := &q.cells[pos&q.mask]
		seq := c.seq.Load()
		switch {
		case seq == pos+1:
			if q.dequeue.CompareAndSwap(pos, pos+1) {
				m := c.msg
				c.seq.Store(pos + uint64(len(q.cells)))
				return m, true
			}
			pos = q.dequeue.Load()
		case seq < pos+1:
			return Msg{}, false // empty
		default:
			pos = q.dequeue.Load()
		}
	}
}

// Len returns an instantaneous (racy) element count: enqueues begun
// minus dequeues begun, so it counts a message from the moment its
// TryEnqueue claims a cell.
func (q *Q) Len() int {
	e := q.enqueue.Load()
	d := q.dequeue.Load()
	if e < d {
		return 0
	}
	return int(e - d)
}
