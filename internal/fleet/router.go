package fleet

import (
	"time"

	"repro/internal/fronthaul"
)

// Route demuxes one RRU packet to its cell by the header's Cell byte,
// applying frame-granular admission: when a cell is draining or inside
// a degradation cooldown, packets that would START a new frame are shed
// (counted, dropped) while packets of frames already in flight keep
// flowing so those frames can finish. Route is single-caller — the
// router state it touches is unsynchronized by design; run one Serve
// loop (or call Route from one goroutine).
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
	frame := int64(h.Frame)
	if frame > c.maxSeen {
		if !f.admitNew(c) {
			c.shed.Add(1)
			return nil
		}
		c.maxSeen = frame
		c.admitted.Add(1)
	} else if c.shedFloor >= 0 && frame >= c.shedFloor {
		// Late packet of a frame that was shed when it tried to start.
		c.shed.Add(1)
		return nil
	}
	return c.rru.Send(pkt)
}

// admitNew decides whether cell c may start another frame right now,
// maintaining the router-local shed window for the current degradation
// episode.
func (f *Fleet) admitNew(c *cell) bool {
	switch CellState(c.state.Load()) {
	case Draining, Stopped:
		c.markShedFloor(c.degradeEpoch.Load())
		return false
	case Degraded:
		epoch := c.degradeEpoch.Load()
		if time.Now().UnixNano() < c.degradedUntil.Load() {
			c.markShedFloor(epoch)
			return false
		}
		// Cooldown over: admit on probation; the forwarder re-activates
		// the cell when this frame completes clean.
		c.clearShedFloor()
		return true
	default:
		c.clearShedFloor()
		return true
	}
}

// markShedFloor records, once per episode, the first frame id being
// shed, so late packets of shed frames are dropped consistently.
func (c *cell) markShedFloor(epoch int64) {
	if c.shedFloor < 0 || c.shedEpoch != epoch {
		c.shedFloor = c.maxSeen + 1
		c.shedEpoch = epoch
	}
}

func (c *cell) clearShedFloor() { c.shedFloor = -1 }

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
