package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/queue"
)

// spinPolls is how many empty polls in a row a role yields before parking.
const spinPolls = 256

// parker is one role's side of the idle rule (idle; DESIGN §3): a parked
// role has no goroutine, and the producer that claims parked starts run
// again. Only the role writes polls; 128 bytes keep parkers apart.
type parker struct {
	parked atomic.Bool
	polls  int
	run    func()     // the role's loop, as a goroutine body (role)
	queues []*queue.Q // the queues the role polls
	_      [72]byte
}

// idle is the engine's one idle rule, run on every empty poll; on false the
// role returns, parked or stopping. Up to spinPolls empty polls yield (all
// under RealTime); the next raises parked and looks at the queues once
// more, and a message there reclaims the flag unless a producer did.
func (e *Engine) idle(p *parker) bool {
	select {
	case <-e.stop:
		return false
	default:
	}
	if p.polls++; p.polls <= spinPolls || e.opts.RealTime {
		runtime.Gosched()
		return true
	}
	p.polls = 0
	p.parked.Store(true)
	for _, q := range p.queues {
		if q.Len() > 0 {
			return p.parked.CompareAndSwap(true, false)
		}
	}
	return false
}

// wakeUp starts p's role again if it is parked and the engine is not
// stopping, and reports whether it claimed the role. A producer publishes
// before it reads parked, a role raises parked before its last look (both
// sequentially consistent), so one always sees the other.
func (e *Engine) wakeUp(p *parker) bool {
	if !p.parked.Load() || !p.parked.CompareAndSwap(true, false) {
		return false
	}
	select {
	case <-e.stop:
	default:
		e.start(p.run)
	}
	return true
}

// wakeTakers wakes at most queued[t] parked roles that poll type t. A
// role parks only after its queues read empty and the first enqueue after
// that wakes it: a full queue's consumer is never parked, so the
// space-waits in flush, runWorker and enqueueRX may keep yielding.
func (e *Engine) wakeTakers(queued *[queue.NumTaskTypes]int) {
	for t := range queued {
		for i := 0; queued[t] > 0 && i < len(e.takers[t]); i++ {
			if e.wakeUp(e.takers[t][i]) {
				queued[t]--
			}
		}
	}
}

// role wraps fn as an engine goroutine's body, counted for Stop and under
// RealTime locked to its thread; built once, so a restart allocates nothing.
func (e *Engine) role(fn func()) func() {
	return func() {
		defer e.wg.Done()
		if e.opts.RealTime {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
		}
		fn()
	}
}

// start runs a role body on a goroutine of its own.
func (e *Engine) start(body func()) {
	e.wg.Add(1)
	go body()
}

// provisionGoroutines leaves, once per process, 128 dead goroutines per
// processor, all alive at once so none is reused early, for parked roles
// to restart on. A restart takes one from its processor's free list; the
// runtime allocates only when that and the shared list are empty, which
// restarts drifting between processors allow until some list passes 64.
var provisionGoroutines = sync.OnceFunc(func() {
	var wg sync.WaitGroup
	hold := make(chan struct{})
	for range 128 * runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() { <-hold; wg.Done() }()
	}
	close(hold)
	wg.Wait()
})

// runClock sends the manager a reap request every FrameTimeout/4, so a
// frame whose packets stopped coming is reaped, busy engine or idle.
func (e *Engine) runClock() {
	t := time.NewTicker(e.opts.FrameTimeout / 4)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			e.enqueueRX(0, 0, 0, 0, rxReap)
		}
	}
}
