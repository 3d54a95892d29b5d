package core

import (
	"sync/atomic"

	"repro/internal/queue"
)

// The stage-edge handoff (DESIGN §3). Go never preempts a worker between
// tasks, so with as many workers as processors the manager — the only
// role that releases the next stage — runs only when some worker runs
// dry. A worker whose completion is the last task of its type in its
// frame therefore yields right after it wakes the manager: wakeUp has
// just put a parked manager in this processor's runnext, so the manager
// runs next and releases the stage that completion unblocked.

// countdown is one task type's tasks left in one frame: frameID<<32 |
// left. Workers decrement it, and only for the frame it is armed for, so
// a late completion of a retired frame can neither fire a handoff nor
// suppress one.
type countdown struct{ w atomic.Uint64 }

// arm sets the countdown to n tasks of frame id.
func (c *countdown) arm(id uint32, n int) { c.w.Store(uint64(id)<<32 | uint64(uint32(n))) }

// done takes n completed tasks of frame id off the countdown and reports
// whether this call took it to 0. A completion of another frame, or one
// that finds the countdown at 0, leaves it untouched.
func (c *countdown) done(id uint32, n int) bool {
	for {
		cur := c.w.Load()
		left := uint32(cur)
		if uint32(cur>>32) != id || left == 0 {
			return false
		}
		left -= min(uint32(n), left)
		if c.w.CompareAndSwap(cur, uint64(id)<<32|uint64(left)) {
			return left == 0
		}
	}
}

// slotCountdowns is one buffer slot's countdowns, one per task type,
// padded to 128 bytes, as the parkers are, to keep neighbouring slots'
// words apart.
type slotCountdowns struct {
	c [queue.NumTaskTypes]countdown
	_ [128 - 8*queue.NumTaskTypes]byte
}

// armCountdowns arms slot's countdowns for frame id from the frame DAG's
// per-type task counts. The manager calls it when it admits the frame,
// before any of the frame's tasks is queued.
func (e *Engine) armCountdowns(slot int, id uint32) {
	for t := range e.left[slot].c {
		e.left[slot].c[t].arm(id, e.dag.Tasks(queue.TaskType(t)))
	}
}

// disarmCountdowns zeroes slot's countdowns when its frame retires, so
// the completions a Dropped frame still has in flight fire nothing.
func (e *Engine) disarmCountdowns(slot int) {
	for t := range e.left[slot].c {
		e.left[slot].c[t].w.Store(0)
	}
}

// lastOfType takes completed task message m off its frame's countdown
// and reports whether it was the frame's last task of its type. The
// worker calls it before it queues the completion: until then the frame
// cannot complete, and a reap that retires it disarms the slot.
func (e *Engine) lastOfType(m queue.Msg) bool {
	return e.left[m.Slot].c[m.Type].done(m.Frame, int(m.Batch))
}
