package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cf"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/fronthaul"
	"repro/internal/queue"
)

// resultTimeout is how long a frame may stay unanswered before it (and
// everything else in flight) counts as failed.
const resultTimeout = 5 * time.Second

// rig is the program under test plus the replay state feeding it: one
// core.Engine on an in-process ring, or a fleet.Fleet entered through
// Fleet.Route. Everything here runs on the benchmark's single
// send-and-collect goroutine.
type rig struct {
	w     *spec
	lanes []*lane // one per cell
	eng   *core.Engine
	fl    *fleet.Fleet
	// rru/engSide are the two ring ends of a single-cell rig: the
	// benchmark sends (and drains downlink) on rru; engSide's counters
	// say how many downlink packets the engine has handed over.
	rru, engSide *fronthaul.Endpoint
	engResults   <-chan core.FrameResult
	flResults    <-chan fleet.CellResult
	timer        *time.Timer
	loss         *fronthaul.LossInjector

	dlDrained int64
	dlCount   [sentRing]int
	dlCapture map[[2]int][]complex64 // (symbol, antenna) -> samples, verification only
}

func newRig(w *spec, pools []*cellPool, seed int64, keepBits, tracing bool) (*rig, error) {
	opts := core.Options{
		Workers:        runtime.NumCPU(),
		Slots:          engineSlots, // the default, pinned because the replay's slot guard depends on it
		DisableTracing: !tracing,
		KeepBits:       keepBits,
		FECParity:      w.fecParity,
	}
	if tracing {
		opts.TraceCapacity = 1 << 16 // keep a multi-second window per lane
	}
	r := &rig{w: w, timer: time.NewTimer(time.Hour)}
	if w.cells > 1 {
		fl, err := fleet.New(fleet.Config{
			Cells: w.cells, Frame: w.cfg, Opts: opts, TotalWorkers: opts.Workers,
		})
		if err != nil {
			return nil, err
		}
		fl.Start()
		r.fl, r.flResults = fl, fl.Results()
		for _, p := range pools {
			r.lanes = append(r.lanes, &lane{pool: p, send: fl.Route})
		}
		return r, nil
	}
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(w.cfg.SamplesPerSymbol())+64)
	r.rru, r.engSide = ring.Side(0), ring.Side(1)
	eng, err := core.NewEngine(w.cfg, opts, r.engSide)
	if err != nil {
		return nil, err
	}
	eng.Start()
	r.eng, r.engResults = eng, eng.Results()
	r.loss = fronthaul.NewLossInjector(w.lossEvery, 0, seed)
	r.lanes = []*lane{{pool: pools[0], send: r.loss.Wrap(r.rru.Send)}}
	return r, nil
}

func (r *rig) stop() {
	if r.fl != nil {
		r.fl.Stop()
	} else {
		r.eng.Stop()
	}
	r.timer.Stop()
}

func (r *rig) engines() []*core.Engine {
	if r.fl == nil {
		return []*core.Engine{r.eng}
	}
	es := make([]*core.Engine, r.fl.Cells())
	for i := range es {
		es[i] = r.fl.Engine(i)
	}
	return es
}

// recv waits up to d for the next FrameResult from any cell.
func (r *rig) recv(d time.Duration) (cell int, res core.FrameResult, ok bool) {
	if !r.timer.Stop() {
		select {
		case <-r.timer.C:
		default:
		}
	}
	r.timer.Reset(d)
	select { // a nil channel never fires, so one select serves both rigs
	case res, ok = <-r.engResults:
		return 0, res, ok
	case cr, open := <-r.flResults:
		return cr.Cell, cr.FrameResult, open
	case <-r.timer.C:
		return 0, res, false
	}
}

func (r *rig) inflight() int {
	n := 0
	for _, l := range r.lanes {
		n += l.inflight()
	}
	return n
}

// drainDownlink pulls every downlink packet the engine has sent so far
// off the RRU side of the ring, counting them per frame.
func (r *rig) drainDownlink() error {
	n := r.engSide.Stats().TxPkts - r.dlDrained
	var h fronthaul.Header
	for ; n > 0; n-- {
		pkt, ok := r.rru.Recv()
		if !ok {
			return fmt.Errorf("ring closed while draining downlink")
		}
		r.dlDrained++
		if err := h.Decode(pkt); err != nil || h.Dir != fronthaul.DirDownlink {
			r.rru.Release(pkt)
			return fmt.Errorf("unexpected packet on the RRU side: %v", err)
		}
		r.dlCount[h.Frame%sentRing]++
		if r.dlCapture != nil {
			samples := make([]complex64, h.Samples)
			cf.UnpackIQ12(samples, fronthaul.Payload(pkt, &h))
			r.dlCapture[[2]int{int(h.Symbol), int(h.Antenna)}] = samples
		}
		r.rru.Release(pkt)
	}
	return nil
}

// phase is what one timed stretch of replay observed, on the benchmark's
// own clock.
type phase struct {
	start time.Time
	dur   time.Duration
	// Per completed, non-failed frame: completion offset from start,
	// first-packet-sent to result-received latency, and the engine's own
	// Start-FirstPkt queueing delay.
	done, lat, qdelay []int64
	perCell           []int
	attempted, failed int
	blocksOK, blocks  int
	rc                replayCost
	stageBusyNS       [queue.NumTaskTypes]int64
	stageTasks        [queue.NumTaskTypes]int64
	lagNS             []int64 // paced only: how late each send started
}

func (r *rig) newPhase(dur time.Duration) *phase {
	room := 0
	if dur > 0 {
		room = 1 << 16 // more frames than a stretch completes: no regrowth inside the timed loop
	}
	return &phase{
		start: time.Now(), dur: dur,
		done: make([]int64, 0, room), lat: make([]int64, 0, room),
		qdelay:  make([]int64, 0, room),
		perCell: make([]int, len(r.lanes)),
	}
}

// account books one FrameResult and reports whether the frame was good.
// paced picks the clock origin of the latency sample: when the frame was
// due (paced) rather than sent (closed loop).
func (r *rig) account(ph *phase, cell int, res core.FrameResult, paced bool) bool {
	l := r.lanes[cell]
	if res.Frame >= l.next || res.Frame < l.oldest || l.open&(1<<(res.Frame%sentRing)) == 0 {
		return false // a late report of a frame already written off
	}
	now := time.Now()
	l.answered(res.Frame)
	good := !res.Dropped
	if good && r.w.cfg.NumDownlink() > 0 {
		if err := r.drainDownlink(); err != nil {
			good = false
		}
		want := r.w.cfg.Antennas * r.w.cfg.NumDownlink()
		good = good && r.dlCount[res.Frame%sentRing] == want
		r.dlCount[res.Frame%sentRing] = 0
	}
	if !good {
		ph.failed++
		return false
	}
	origin := l.sentAt[res.Frame%sentRing]
	if paced {
		origin = l.dueAt[res.Frame%sentRing]
	}
	ph.done = append(ph.done, now.Sub(ph.start).Nanoseconds())
	ph.lat = append(ph.lat, now.Sub(origin).Nanoseconds())
	ph.qdelay = append(ph.qdelay, res.Start.Sub(res.FirstPkt).Nanoseconds())
	ph.perCell[cell]++
	ph.blocksOK += res.BlocksOK
	ph.blocks += res.BlocksTotal
	for t := range res.Rec.Stages {
		ph.stageBusyNS[t] += res.Rec.Stages[t].BusyNS
		ph.stageTasks[t] += int64(res.Rec.Stages[t].Tasks)
	}
	return true
}

// writeOff counts everything in flight as failed after a result timeout.
func (r *rig) writeOff(ph *phase) {
	ph.failed += r.inflight()
	for _, l := range r.lanes {
		l.open, l.oldest = 0, l.next
	}
}

// runClosed replays for dur with a closed loop: at most laneWin frames
// in flight per cell and totalWin overall; a frame is sent only when a
// result frees a place. It returns once everything sent has answered.
func (r *rig) runClosed(dur time.Duration, laneWin, totalWin int) (*phase, error) {
	ph := r.newPhase(dur)
	end := ph.start.Add(dur)
	nextLane := 0
	for {
		if time.Now().Before(end) {
			for r.inflight() < totalWin {
				picked := -1
				for i := range r.lanes {
					c := (nextLane + i) % len(r.lanes)
					if r.lanes[c].inflight() < laneWin && r.lanes[c].slotFree() {
						picked = c
						break
					}
				}
				if picked < 0 {
					break
				}
				if _, err := r.lanes[picked].sendFrame(&ph.rc); err != nil {
					return ph, err
				}
				ph.attempted++
				nextLane = (picked + 1) % len(r.lanes)
			}
		} else if r.inflight() == 0 {
			return ph, nil
		}
		cell, res, ok := r.recv(resultTimeout)
		if !ok {
			r.writeOff(ph)
			return ph, nil
		}
		r.account(ph, cell, res, false)
	}
}

// runPaced replays for dur on a fixed schedule, one frame every
// interval, cells alternating, whether or not earlier frames have
// answered. Latency runs from when a frame was due, so a stall charges
// every frame queued behind it.
func (r *rig) runPaced(dur, interval time.Duration) (*phase, error) {
	ph := r.newPhase(dur)
	end := ph.start.Add(dur)
	due := ph.start
	nextLane := 0
	for {
		now := time.Now()
		wait := resultTimeout
		if due.Before(end) {
			if !now.Before(due) {
				l := r.lanes[nextLane]
				nextLane = (nextLane + 1) % len(r.lanes)
				ph.attempted++
				if !l.slotFree() {
					ph.failed++ // refused: sending it would collide in the engine's buffers
				} else {
					ph.lagNS = append(ph.lagNS, now.Sub(due).Nanoseconds())
					id, err := l.sendFrame(&ph.rc)
					if err != nil {
						return ph, err
					}
					l.dueAt[id%sentRing] = due
				}
				due = due.Add(interval)
				continue
			}
			wait = due.Sub(now)
		} else if r.inflight() == 0 {
			return ph, nil
		}
		cell, res, ok := r.recv(wait)
		if ok {
			r.account(ph, cell, res, true)
		} else if wait == resultTimeout {
			r.writeOff(ph)
			return ph, nil
		}
	}
}

// verify pushes the first n pool frames of every cell through the rig
// one at a time (the rig must run with KeepBits) and checks the outputs
// against ground truth: uplink bits through Generator.CompareUplink,
// downlink through the user-side receiver.
func (r *rig) verify(n int) error {
	ph := r.newPhase(0)
	for i := 0; i < n; i++ {
		for c, l := range r.lanes {
			if r.w.cfg.NumDownlink() > 0 {
				r.dlCapture = make(map[[2]int][]complex64)
			}
			id, err := l.sendFrame(&ph.rc)
			if err != nil {
				return err
			}
			cell, res, ok := r.recv(resultTimeout)
			if !ok || cell != c || res.Frame != id {
				return fmt.Errorf("verify: cell %d frame %d: no result (ok=%v, got cell %d frame %d)",
					c, id, ok, cell, res.Frame)
			}
			if !r.account(ph, cell, res, false) {
				return fmt.Errorf("verify: cell %d frame %d dropped or short of downlink packets", c, id)
			}
			pf := &l.pool.frames[int(id)%len(l.pool.frames)]
			if r.w.cfg.NumDownlink() > 0 {
				err = checkDownlink(&r.w.cfg, l.pool.gen.H, r.dlCapture, r.engines()[c].DownlinkTruth)
			} else {
				err = checkUplink(l.pool, pf, &res)
			}
			if err != nil {
				return fmt.Errorf("verify: cell %d frame %d: %w", c, id, err)
			}
		}
	}
	r.dlCapture = nil
	return nil
}

// checkUplink scores one KeepBits result with Generator.CompareUplink.
// Blocks the engine reports failed are passed as nil, which CompareUplink
// counts as all-bits-wrong; anything beyond that is a wrong bit inside a
// block the engine called good.
func checkUplink(p *cellPool, pf *poolFrame, res *core.FrameResult) error {
	cfg := &p.gen.Cfg
	if res.Bits == nil {
		return fmt.Errorf("result carries no bits")
	}
	decoded := make([][][]byte, cfg.Users)
	notOK := 0
	for u := range decoded {
		decoded[u] = make([][]byte, cfg.NumSymbols())
		for s := range decoded[u] {
			if pf.truth[u][s] == nil {
				continue
			}
			copy(p.gen.TruthBits[u][s], pf.truth[u][s])
			if res.OKMask[s][u] {
				decoded[u][s] = res.Bits[s][u]
			} else {
				notOK++
			}
		}
	}
	bitErrs, _, blockErrs, blocks := p.gen.CompareUplink(decoded)
	k := cfg.Code().K()
	if bitErrs != notOK*k || blockErrs != notOK {
		return fmt.Errorf("%d bit errors in %d blocks the engine reported OK",
			bitErrs-notOK*k, blockErrs-notOK)
	}
	if blocks != res.BlocksTotal || res.BlocksOK != blocks-notOK {
		return fmt.Errorf("block accounting: result %d/%d, mask %d/%d",
			res.BlocksOK, res.BlocksTotal, blocks-notOK, blocks)
	}
	return nil
}
