package fleet

import (
	"time"

	"repro/internal/core"
	"repro/internal/fronthaul"
)

// Route demuxes one RRU packet to its cell by the header's Cell byte,
// applying frame-granular admission: when a cell is draining or inside
// a degradation cooldown, packets that would START a new frame are shed
// (counted, dropped) while packets of frames already in flight keep
// flowing so those frames can finish. A packet starts a new frame when
// its id is new against the newest id of its engine buffer slot by the
// engine's own rule (core.FrameIsNew), so the router counts a frame
// admitted where the engine claims or refuses a slot for it, and a
// result answers it; an id too far ahead of its slot is forwarded
// without admission, and the engine drops it as late. Route is
// single-caller — the router state it touches is unsynchronized by
// design; run one Serve loop (or call Route from one goroutine).
//
// The packet is copied into the cell's ring on forward; the caller
// keeps ownership of pkt and may release or reuse it immediately.
func (f *Fleet) Route(pkt []byte) error {
	var h fronthaul.Header
	if err := h.Decode(pkt); err != nil {
		return err
	}
	if int(h.Cell) >= len(f.cells) {
		f.misroute.Add(1)
		return nil
	}
	c := f.cells[int(h.Cell)]
	s := int(h.Frame) % len(c.newest)
	if !c.seen[s] || core.FrameIsNew(h.Frame, c.newest[s]) {
		if !c.admitting() {
			c.shed.Add(1)
			return nil
		}
		c.newest[s], c.seen[s] = h.Frame, true
		c.admitted.Add(1)
	}
	return c.rru.Send(pkt)
}

// admitting reports whether cell c may start another frame right now.
// A degraded cell past its cooldown admits on probation; its sink
// re-activates the cell when that frame completes clean.
func (c *cell) admitting() bool {
	switch CellState(c.state.Load()) {
	case Draining, Stopped:
		return false
	case Degraded:
		return time.Now().UnixNano() >= c.degradedUntil.Load()
	default:
		return true
	}
}

// Serve pumps packets from tr through Route until the transport closes,
// releasing each buffer back to the transport after the router's copy.
// It runs in its own goroutine and is the fleet's single router loop;
// Stop waits for it after the transport closes. Close the transport (or
// call Stop, which does not close tr) to end it.
func (f *Fleet) Serve(tr fronthaul.Transport) {
	f.serveWG.Add(1)
	go func() {
		defer f.serveWG.Done()
		batch := make([][]byte, 64)
		for {
			n, ok := tr.RecvBatch(batch)
			if !ok {
				return
			}
			for _, pkt := range batch[:n] {
				_ = f.Route(pkt)
				tr.Release(pkt)
			}
		}
	}()
}
