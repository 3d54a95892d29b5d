package core

import (
	"testing"

	"repro/internal/queue"
)

// BenchmarkManagerFrame is the manager's own cost per frame, with no
// worker, kernel or transport: each iteration feeds one small_frames
// frame's RX notifications (8×2, "PUU") through onRX and completes every
// task the frame DAG releases straight back through onCompletion, as
// runManager does. It must stay at 0 allocs/op.
func BenchmarkManagerFrame(b *testing.B) {
	cfg := smallCfg()
	e, err := NewEngine(cfg, Options{Workers: 2, DisableRecorder: true, DisableZFCache: true}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint32(i)
		slot := i % e.opts.Slots
		e.slotOwner[slot].Store(id + 1) // what acceptPacket's claim does
		for sym := 0; sym < cfg.NumSymbols(); sym++ {
			for a := 0; a < cfg.Antennas; a++ {
				e.onRX(queue.Msg{Type: queue.TaskPacketRX, Frame: id, Slot: uint32(slot),
					Symbol: uint16(sym), TaskIdx: uint16(a)})
				e.flush()
			}
		}
		for busy := true; busy; {
			busy = false
			for t := range e.taskQ {
				for m, ok := e.taskQ[t].TryDequeue(); ok; m, ok = e.taskQ[t].TryDequeue() {
					busy = true
					e.onCompletion(m)
					e.flush()
				}
			}
		}
		if r := <-e.results; r.Dropped {
			b.Fatal("frame dropped")
		}
	}
}
