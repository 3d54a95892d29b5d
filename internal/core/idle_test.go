package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/queue"
	"repro/internal/workload"
)

// parkers lists every role's parker: the manager, netTX and the workers.
func (e *Engine) parkers() []*parker {
	ps := []*parker{e.mgrPark, e.tx.park}
	for _, w := range e.workers {
		ps = append(ps, w.park)
	}
	return ps
}

// waitParked polls the parked flags of the engine's running roles until
// all are up at once, failing after d.
func waitParked(t *testing.T, e *Engine, d time.Duration) {
	t.Helper()
	ps := e.parkers()
	if e.tr == nil || !e.hasDownlink {
		ps = append(ps[:1], ps[2:]...) // netTX does not run
	}
	deadline := time.Now().Add(d)
	for {
		all := true
		for _, p := range ps {
			all = all && p.parked.Load()
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("not every role parked within %v", d)
		}
		time.Sleep(time.Millisecond)
	}
}

// idleEngine starts an engine over a ring for cfg and no traffic.
func idleEngine(t *testing.T, cfg frame.Config, opts Options) *Engine {
	t.Helper()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	eng, err := NewEngine(cfg, opts, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	return eng
}

// TestParkLooksOnceMoreWithFlagUp pins the step that closes the race
// with a producer. The empty poll after the spin raises the parked flag
// and looks at the role's queues once more: with a message there the role
// reclaims the flag and polls on; with none it returns, parked, and the
// first wakeUp claims it and starts it again, exactly once.
func TestParkLooksOnceMoreWithFlagUp(t *testing.T) {
	eng, err := NewEngine(smallCfg(), Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 2)
	q := queue.New(2)
	p := &parker{run: eng.role(func() { started <- struct{}{} }), queues: []*queue.Q{q}}
	spin := func() {
		t.Helper()
		for i := 0; i < spinPolls; i++ {
			if !eng.idle(p) || p.parked.Load() {
				t.Fatalf("poll %d of the spin parked", i)
			}
		}
	}
	spin()
	q.TryEnqueue(queue.Msg{})
	if !eng.idle(p) || p.parked.Load() || p.polls != 0 {
		t.Fatal("a queued message did not reclaim the flag")
	}
	q.TryDequeue()
	spin()
	if eng.idle(p) || !p.parked.Load() {
		t.Fatal("the look at empty queues did not park the role")
	}
	if !eng.wakeUp(p) || eng.wakeUp(p) || p.parked.Load() {
		t.Fatal("wakeUp must claim a parked role exactly once")
	}
	<-started
	eng.wg.Wait()
	if len(started) != 0 {
		t.Fatal("a role was started twice")
	}
}

// TestIdleEngineParks: with no traffic every role of an uplink and of a
// downlink engine (the latter with netTX) reaches its parked state, where
// it blocks instead of polling.
func TestIdleEngineParks(t *testing.T) {
	for _, sym := range []string{"PUU", "PDD"} {
		t.Run(sym, func(t *testing.T) {
			cfg := smallCfg()
			cfg.Symbols = sym
			eng := idleEngine(t, cfg, Options{Workers: 2})
			defer eng.Stop()
			waitParked(t, eng, 100*time.Millisecond)
		})
	}
}

// TestWakeNoLostFrames sends single frames one at a time with jittered
// gaps of 0–300 µs between them, so that arrivals land while the roles
// spin, while they raise their flags and after they have parked; every
// frame must come back, whole, within 2 s. The uplink leg injects through
// InjectPacket (RX wake-ups of the manager, flush's of the workers), the
// downlink leg also has netTX take every packet.
func TestWakeNoLostFrames(t *testing.T) {
	for _, tc := range []struct {
		sym    string
		frames int
	}{{"PUU", 2000}, {"PDD", 1000}} {
		t.Run(tc.sym, func(t *testing.T) {
			n := tc.frames
			if testing.Short() {
				n /= 10
			}
			cfg := smallCfg()
			cfg.Symbols = tc.sym
			// A reap-timer period far past 2 s: only a producer's wake-up
			// can bring a parked role back in time.
			eng := idleEngine(t, cfg, Options{Workers: 2, FrameTimeout: time.Minute})
			defer eng.Stop()
			gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 28, 3)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for f := 0; f < n; f++ {
				gap := time.Duration(rng.Intn(300)) * time.Microsecond
				for t0 := time.Now(); time.Since(t0) < gap; {
					runtime.Gosched()
				}
				if err := gen.EmitFrame(uint32(f), eng.InjectPacket); err != nil {
					t.Fatal(err)
				}
				select {
				case r := <-eng.Results():
					if r.Frame != uint32(f) || r.Dropped || r.BlocksOK != r.BlocksTotal {
						t.Fatalf("frame %d: got frame %d dropped=%v blocks %d/%d",
							f, r.Frame, r.Dropped, r.BlocksOK, r.BlocksTotal)
					}
				case <-time.After(2 * time.Second):
					t.Fatalf("frame %d: no result within 2 s", f)
				}
			}
		})
	}
}

// TestReapWhileParked: a frame one packet short holds the manager's only
// live slot while every role parks; the manager's reap timer must still
// drop it at FrameTimeout.
func TestReapWhileParked(t *testing.T) {
	const timeout = 200 * time.Millisecond
	cfg := smallCfg()
	eng := idleEngine(t, cfg, Options{Workers: 2, FrameTimeout: timeout})
	defer eng.Stop()
	gen, err := workload.NewGenerator(cfg, channel.Rayleigh, 28, 5)
	if err != nil {
		t.Fatal(err)
	}
	var pkts [][]byte
	if err := gen.EmitFrame(0, func(p []byte) error {
		pkts = append(pkts, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, p := range pkts[:len(pkts)-1] {
		if err := eng.InjectPacket(p); err != nil {
			t.Fatal(err)
		}
	}
	waitParked(t, eng, timeout/2)
	select {
	case r := <-eng.Results():
		if !r.Dropped {
			t.Fatalf("short frame not dropped: %+v", r)
		}
		if el := time.Since(start); el < timeout {
			t.Fatalf("reaped after %v, before FrameTimeout %v", el, timeout)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("short frame never reaped while the manager was parked")
	}
}

// TestStopWhileParked: Stop on an idle engine wakes every parked role and
// returns promptly.
func TestStopWhileParked(t *testing.T) {
	cfg := smallCfg()
	cfg.Symbols = "PDD"
	eng := idleEngine(t, cfg, Options{Workers: 2})
	waitParked(t, eng, time.Second)
	done := make(chan struct{})
	go func() {
		eng.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop did not return within 1 s of parked roles")
	}
}
