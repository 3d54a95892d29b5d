// Package obs is the engine's observability layer (DESIGN §12): a
// lock-free per-worker event tracer with its lane-utilisation fold and
// Chrome trace_event exporter; per-frame SLO attribution (FrameRec, the
// one account of per-frame stage spans) and the anomaly flight recorder
// (IncidentRing); and the live Metrics with the metric table
// (table.go) from which the expvar Snapshot, Prometheus /metrics and
// fleet totals are all rendered.
//
// The tracer records one Event per executed task message into a
// preallocated per-lane ring buffer. Each lane has exactly one writer (its
// worker goroutine), so an append is one atomic load, a struct store, and
// one atomic store — no CAS, no locks, no allocation. When the ring fills
// it overwrites the oldest events, so a capture always holds the most
// recent window of activity (the interesting part of a run). A disabled
// or nil tracer short-circuits Emit before touching any ring.
//
// Reading the rings (Snapshot, and everything built on it) is only valid
// while the writers are quiescent — in practice after Engine.Stop — because
// ring cells are plain memory. Everything a *live* dashboard needs is kept
// separately in Metrics, whose fields are all atomics and safe to read at
// any time.
package obs

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/queue"
)

// Event records one executed task: which lane (worker) ran it, what it
// was, and its start/end times in nanoseconds since the engine's epoch.
type Event struct {
	Start, End int64 // ns since the engine's epoch
	Frame      uint32
	Symbol     uint16
	TaskIdx    uint16
	Lane       uint16 // worker id; the TX lane is numbered after the workers
	Type       queue.TaskType
	Batch      uint8
}

// Dur returns the event's duration.
func (ev *Event) Dur() time.Duration { return time.Duration(ev.End - ev.Start) }

// lane is one single-writer event ring. head counts events ever written;
// the cell for event n is buf[n&mask], so the ring keeps the most recent
// len(buf) events and older ones are overwritten in place.
type lane struct {
	buf  []Event
	mask uint64
	head padUint64
}

// padUint64 keeps each lane's hot cursor on its own cache line.
type padUint64 struct {
	_ [56]byte
	v atomic.Uint64
	_ [56]byte
}

// Tracer owns the per-lane rings. The zero value and the nil pointer are
// both valid, disabled tracers.
type Tracer struct {
	lanes []lane
}

// NewTracer creates a tracer with nLanes rings of perLane events each
// (rounded up to a power of two, minimum 2).
func NewTracer(nLanes, perLane int) *Tracer {
	n := 2
	for n < perLane {
		n <<= 1
	}
	t := &Tracer{lanes: make([]lane, nLanes)}
	for i := range t.lanes {
		t.lanes[i].buf = make([]Event, n)
		t.lanes[i].mask = uint64(n - 1)
	}
	return t
}

// Enabled reports whether Emit records anything.
func (t *Tracer) Enabled() bool { return t != nil && len(t.lanes) > 0 }

// Emit appends ev to its lane's ring. It must only be called by the
// lane's owning goroutine. A nil tracer ignores the call.
func (t *Tracer) Emit(ev Event) {
	if t == nil || int(ev.Lane) >= len(t.lanes) {
		return
	}
	l := &t.lanes[ev.Lane]
	h := l.head.v.Load()
	l.buf[h&l.mask] = ev
	l.head.v.Store(h + 1)
}

// Snapshot returns every retained event, globally sorted by start time.
// Call only while the writers are quiescent (after the engine stopped):
// ring cells are plain memory and a concurrent Emit would race.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.lanes {
		l := &t.lanes[i]
		h := l.head.v.Load()
		n := h
		if n > uint64(len(l.buf)) {
			n = uint64(len(l.buf))
		}
		for j := h - n; j < h; j++ {
			out = append(out, l.buf[j&l.mask])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Lane < out[j].Lane
	})
	return out
}
