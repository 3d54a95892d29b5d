// Package harness drives complete runs — software RRU feeding a real
// engine over the in-process ring (RunUplink and friends), or several
// per-cell RRUs feeding a multi-cell fleet through its router
// (RunFleetUplink) — and aggregates latency and error statistics.
// Both the public API (package agora) and the experiment suite build
// on it.
package harness

import (
	"fmt"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RunSummary aggregates a batch uplink run.
type RunSummary struct {
	Frames      int
	Latency     *stats.Reservoir
	QueueDelay  *stats.Reservoir
	BlocksOK    int
	BlocksTotal int
	BitErrs     int
	Bits        int
	Drops       int64
	// Dropped counts frames the engine abandoned (timeout/rejection);
	// they are excluded from the latency and block statistics above.
	Dropped   int
	TaskStats map[queue.TaskType]core.TaskStat
	// Fronthaul loss on the wire (DESIGN §15): LossInjected is how many
	// packets the Link's injector discarded; TxDrops how many the
	// RRU-side transport dropped (full ring). The engine's own view of the
	// loss (sequence gaps, late packets, FEC recoveries) is in Metrics.
	LossInjected int64
	TxDrops      int64
	// Metrics is the engine's metric snapshot taken after Stop: every
	// live counter (deadline misses, ZF-cache decisions, fronthaul loss
	// accounting, decode iterations), the kernel table and the per-stage
	// SLO rows. It includes the warm-up frames.
	Metrics obs.Snapshot
	// Timeline is the reconstructed multi-frame schedule from the event
	// tracer: per-frame stage spans, worker utilization, idle gaps. Nil
	// when Options.DisableTracing is set.
	Timeline *obs.Timeline
	// Incidents is the flight recorder's retained post-mortems (bad
	// frames: drops, deadline misses, FEC budget exceeded).
	Incidents []obs.Incident
}

// BLER returns the run's block error rate.
func (r *RunSummary) BLER() float64 {
	if r.BlocksTotal == 0 {
		return 0
	}
	return float64(r.BlocksTotal-r.BlocksOK) / float64(r.BlocksTotal)
}

// Link models the fronthaul between RRU and engine for RunUplinkLink:
// an optional Reed-Solomon parity budget and a deterministic loss
// injector. The zero value is a lossless link with FEC off — exactly
// RunUplink's behaviour.
type Link struct {
	// FECParity adds this many Reed-Solomon parity packets per symbol
	// burst on the RRU side and the matching reconstruction budget on the
	// engine side (core.Options.FECParity).
	FECParity int
	// DropEvery discards every Nth packet when > 0; DropRate additionally
	// discards packets at the given seeded-random rate (see
	// fronthaul.NewLossInjector). LossSeed seeds the random component.
	DropEvery int
	DropRate  float64
	LossSeed  int64
}

// RunUplink drives nFrames uplink frames from a fresh software RRU
// through a fresh engine. With realtimePacing the RRU emits at the frame
// rate; otherwise frames go back-to-back, one in flight at a time (pure
// processing-speed measurement). With opts.KeepBits set, decoded bits
// are scored against the generator's ground truth.
func RunUplink(cfg frame.Config, opts core.Options, model channel.Model,
	snrDB float64, nFrames int, realtimePacing bool, seed int64) (*RunSummary, error) {
	return RunUplinkLink(cfg, opts, model, snrDB, nFrames, realtimePacing, seed, Link{})
}

// RunUplinkLink is RunUplink over a configurable fronthaul link: packet
// loss injected between RRU and engine, optionally covered by the
// Reed-Solomon parity budget (DESIGN §15).
func RunUplinkLink(cfg frame.Config, opts core.Options, model channel.Model,
	snrDB float64, nFrames int, realtimePacing bool, seed int64, link Link) (*RunSummary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	gen, err := workload.NewGenerator(cfg, model, snrDB, seed)
	if err != nil {
		return nil, err
	}
	if link.FECParity > 0 {
		if err := gen.SetFECParity(link.FECParity); err != nil {
			return nil, err
		}
		opts.FECParity = link.FECParity
	}
	checkBits := opts.KeepBits
	eng, err := core.NewEngine(cfg, opts, ring.Side(1))
	if err != nil {
		return nil, err
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	loss := fronthaul.NewLossInjector(link.DropEvery, link.DropRate, link.LossSeed)
	send := loss.Wrap(rru.Send) // bound once: a per-frame method value would allocate
	sum := &RunSummary{
		Latency:    stats.NewReservoir(nFrames),
		QueueDelay: stats.NewReservoir(nFrames),
	}
	frameDur := cfg.FrameDuration()
	results := eng.Results()
	// The engine emits exactly one FrameResult for every frame it sees —
	// a frame refused because an older one still holds its buffer slot
	// surfaces as Dropped at once, a frame missing packets at the frame
	// timeout (2s default) — so a healthy run never comes near this
	// deadline; it only catches a wedged engine.
	recv := func() (core.FrameResult, error) {
		select {
		case r := <-results:
			return r, nil
		case <-time.After(15 * time.Second):
			return core.FrameResult{}, fmt.Errorf("harness: frame result timeout")
		}
	}
	// Warm up: a couple of unrecorded frames absorb one-time costs
	// (goroutine startup, cold caches, lazily built tables) so latency
	// percentiles describe steady state.
	const warmup = 2
	for f := 0; f < warmup; f++ {
		if err := gen.EmitFrame(uint32(f), send); err != nil {
			return sum, err
		}
		if _, err := recv(); err != nil {
			return sum, err
		}
	}
	collect := func(r core.FrameResult) {
		sum.Frames++
		if r.Dropped {
			sum.Dropped++
			return
		}
		sum.Latency.Add(r.Latency)
		sum.QueueDelay.Add(r.Start.Sub(r.FirstPkt))
		sum.BlocksOK += r.BlocksOK
		sum.BlocksTotal += r.BlocksTotal
	}
	if realtimePacing {
		done := make(chan error, 1)
		go func() {
			next := time.Now()
			for f := 0; f < nFrames; f++ {
				if err := gen.EmitFrame(uint32(warmup+f), send); err != nil {
					done <- err
					return
				}
				next = next.Add(frameDur)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
			}
			done <- nil
		}()
		for f := 0; f < nFrames; f++ {
			r, err := recv()
			if err != nil {
				return sum, err
			}
			collect(r)
		}
		if err := <-done; err != nil {
			return sum, err
		}
	} else {
		for f := 0; f < nFrames; f++ {
			if err := gen.EmitFrame(uint32(warmup+f), send); err != nil {
				return sum, err
			}
			r, err := recv()
			if err != nil {
				return sum, err
			}
			collect(r)
			if checkBits && !r.Dropped && r.Bits != nil {
				byUser := make([][][]byte, cfg.Users)
				for u := 0; u < cfg.Users; u++ {
					byUser[u] = make([][]byte, cfg.NumSymbols())
					for s := 0; s < cfg.NumSymbols(); s++ {
						if r.Bits[s] != nil {
							byUser[u][s] = r.Bits[s][u]
						}
					}
				}
				be, bits, _, _ := gen.CompareUplink(byUser)
				sum.BitErrs += be
				sum.Bits += bits
			}
		}
	}
	sum.Drops = eng.Drops()
	eng.Stop() // quiesce workers so the trace rings are readable
	sum.TaskStats = eng.TaskStats()
	sum.LossInjected = loss.Dropped()
	sum.TxDrops = rru.Stats().TxDrops
	sum.Metrics = eng.MetricsSnapshot()
	sum.Incidents = eng.Incidents()
	if eng.TracingEnabled() {
		sum.Timeline = eng.Timeline()
	}
	return sum, nil
}
