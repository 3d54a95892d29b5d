// Package fleet runs N independent core.Engine cells behind a cell
// router, the multi-cell sharded deployment of DESIGN §16. Each cell
// owns a private fronthaul ring feeding the engine's zero-copy leased-RX
// path; the router demuxes a mixed RRU stream to cells by the packet
// header's Cell byte, paying exactly one copy at the fleet boundary
// (Endpoint.Send into the cell ring — the same copy a NIC queue would).
//
// The fleet coordinates lifecycle across cells: Start brings every cell
// up, Drain stops admitting new frames while in-flight frames complete,
// Stop tears everything down. A cell that misses deadlines or drops
// frames repeatedly degrades gracefully: the router sheds that cell's
// *new* frames for a cooldown window (packets of frames already in
// flight still flow) instead of letting an overloaded cell poison its
// neighbours' worker budget, then re-admits on probation.
//
// Observability aggregates the per-engine obs plane: every cell result
// feeds one merged latency histogram, and Snapshot returns
// obs.FleetSnapshot — totals merged row by row through the obs metric
// table, true cross-cell percentiles, per-cell drill-down — which
// cmd/agora publishes on a single expvar endpoint (-cells N).
package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/obs"
)

// Config sizes a fleet of identical cells.
type Config struct {
	// Cells is the number of engines (1..256; the wire Cell field is one
	// byte).
	Cells int
	// Frame is the per-cell frame geometry (cells are homogeneous).
	Frame frame.Config
	// Opts configures each cell's engine. Opts.Workers is the per-cell
	// worker count unless TotalWorkers overrides it.
	Opts core.Options
	// TotalWorkers, when > 0, is a shared worker budget divided evenly
	// across cells (minimum one worker per cell) — the "shared pool"
	// sizing mode. Zero keeps Opts.Workers per cell.
	TotalWorkers int
	// RingDepth sizes each cell's fronthaul ring in packets (0 = 4096).
	RingDepth int
	// DegradeThreshold is the consecutive bad-frame count that degrades
	// a cell. 0 means 8; negative disables degradation.
	DegradeThreshold int
	// DegradeOnDeadline widens "bad frame" from dropped frames to frames
	// exceeding the on-air frame budget. Off by default: a development
	// host rarely beats the real-time budget, and shedding there would
	// never stop. Real deployments that do keep up should enable it so a
	// cell falling behind sheds before its slots exhaust.
	DegradeOnDeadline bool
	// DegradeCooldown is how long a degraded cell sheds new frames
	// before probation (0 = 250ms).
	DegradeCooldown time.Duration
}

func (c Config) withDefaults() Config {
	if c.RingDepth <= 0 {
		c.RingDepth = 4096
	}
	if c.DegradeThreshold == 0 {
		c.DegradeThreshold = 8
	}
	if c.DegradeCooldown <= 0 {
		c.DegradeCooldown = 250 * time.Millisecond
	}
	return c
}

// CellState is a cell's lifecycle state.
type CellState int32

// Cell lifecycle states.
const (
	Active   CellState = iota // admitting and processing frames
	Degraded                  // shedding new frames after repeated misses
	Draining                  // finishing in-flight frames, admitting none
	Stopped
)

// String implements fmt.Stringer.
func (s CellState) String() string {
	switch s {
	case Active:
		return "active"
	case Degraded:
		return "degraded"
	case Draining:
		return "draining"
	case Stopped:
		return "stopped"
	}
	return "unknown"
}

// CellResult is one cell's frame outcome, tagged with the cell id.
type CellResult struct {
	Cell int
	core.FrameResult
}

// cell is one engine plus its private fronthaul ring and router-side
// admission state.
type cell struct {
	id   int
	ring *fronthaul.Ring
	rru  *fronthaul.Endpoint // RRU-facing side the router sends into
	eng  *core.Engine

	state         atomic.Int32 // CellState
	degradedUntil atomic.Int64 // UnixNano; 0 when not degraded
	degradeEpoch  atomic.Int64 // bumped on each Active→Degraded edge

	admitted  atomic.Int64 // frames the router forwarded a first packet of
	finished  atomic.Int64 // results the engine delivered
	shed      atomic.Int64 // packets the router refused (degraded/draining)
	badStreak int          // forwarder-local consecutive bad frames

	// Router-local (single router goroutine; no atomics needed).
	maxSeen   int64 // highest frame id forwarded; -1 before any
	shedFloor int64 // first frame id being shed this episode; -1 = none
	shedEpoch int64 // degradeEpoch the shedFloor belongs to
}

// Fleet is a running multi-cell deployment.
type Fleet struct {
	cfg      Config
	cells    []*cell
	results  chan CellResult
	met      obs.Metrics       // merged across cells (true fleet-wide histogram)
	inc      *obs.IncidentRing // fleet-level incidents (cell shed events)
	misroute atomic.Int64

	fwdWG    sync.WaitGroup
	serveWG  sync.WaitGroup
	started  bool
	draining atomic.Bool
	stopOnce sync.Once
}

// New builds a fleet of cfg.Cells engines. Engines are constructed but
// not started; call Start.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.Cells < 1 || cfg.Cells > 256 {
		return nil, fmt.Errorf("fleet: Cells must be in [1,256], got %d", cfg.Cells)
	}
	opts := cfg.Opts
	if cfg.TotalWorkers > 0 {
		opts.Workers = cfg.TotalWorkers / cfg.Cells
		if opts.Workers < 1 {
			opts.Workers = 1
		}
	}
	f := &Fleet{
		cfg:     cfg,
		cells:   make([]*cell, cfg.Cells),
		results: make(chan CellResult, 64*cfg.Cells),
		inc:     obs.NewIncidentRing(64),
	}
	mtu := fronthaul.PacketSize(cfg.Frame.SamplesPerSymbol()) + 64
	for i := range f.cells {
		ring := fronthaul.NewRing(cfg.RingDepth, mtu)
		eng, err := core.NewEngine(cfg.Frame, opts, ring.Side(1))
		if err != nil {
			for _, c := range f.cells[:i] {
				_ = c.rru.Close()
			}
			return nil, fmt.Errorf("fleet: cell %d: %w", i, err)
		}
		f.cells[i] = &cell{
			id: i, ring: ring, rru: ring.Side(0), eng: eng,
			maxSeen: -1, shedFloor: -1,
		}
	}
	f.met.FrameBudgetNS.Store(f.cells[0].eng.Metrics().FrameBudgetNS.Load())
	return f, nil
}

// Start launches every cell engine and its result forwarder.
func (f *Fleet) Start() {
	if f.started {
		panic("fleet: Start called twice")
	}
	f.started = true
	for _, c := range f.cells {
		c.eng.Start()
		f.fwdWG.Add(1)
		go f.forward(c)
	}
}

// forward relays one cell's frame results into the fleet stream, feeding
// the merged metrics and the degradation state machine. It is the single
// writer of the cell's state transitions.
func (f *Fleet) forward(c *cell) {
	defer f.fwdWG.Done()
	budget := c.eng.Metrics().FrameBudgetNS.Load()
	for r := range c.eng.Results() {
		c.finished.Add(1)
		bad := r.Dropped ||
			(f.cfg.DegradeOnDeadline && budget > 0 && int64(r.Latency) > budget)
		if r.Dropped {
			f.met.FramesDropped.Add(1)
		} else {
			f.met.ObserveFrame(int64(r.Latency))
			// Fold the frame's attribution record into the fleet-merged
			// SLO histograms (a no-op for recorder-off engines: every
			// stage's task count is zero).
			f.met.ObserveStages(&r.Rec)
		}
		f.degradeStep(c, bad, &r.Rec)
		f.results <- CellResult{Cell: c.id, FrameResult: r}
	}
	if CellState(c.state.Load()) != Stopped {
		c.state.Store(int32(Stopped))
	}
}

// degradeStep advances the cell's graceful-degradation state machine on
// one frame outcome. rec is the outcome frame's attribution record,
// captured into the fleet flight recorder on an Active→Degraded edge.
func (f *Fleet) degradeStep(c *cell, bad bool, rec *obs.FrameRec) {
	if f.cfg.DegradeThreshold < 0 {
		return
	}
	if !bad {
		c.badStreak = 0
		if CellState(c.state.Load()) == Degraded &&
			time.Now().UnixNano() >= c.degradedUntil.Load() {
			// Probation frame completed clean: re-activate.
			c.state.CompareAndSwap(int32(Degraded), int32(Active))
		}
		return
	}
	c.badStreak++
	if c.badStreak >= f.cfg.DegradeThreshold &&
		CellState(c.state.Load()) == Active {
		c.degradedUntil.Store(time.Now().Add(f.cfg.DegradeCooldown).UnixNano())
		c.degradeEpoch.Add(1)
		c.state.Store(int32(Degraded))
		c.badStreak = 0
		// Shed incident: the frame that tipped the streak, plus the
		// cell's queue/arena gauges at the edge (DESIGN §17).
		inc := obs.Incident{Cell: c.id, Reason: obs.IncidentShed, Rec: *rec}
		em := c.eng.Metrics()
		for i := 0; i < obs.NumGauges; i++ {
			inc.Queues[i] = em.QueueDepth[i].Load()
			inc.QueueMax[i] = em.QueueMax[i].Load()
		}
		inc.FreeStates = em.FreeStates.Load()
		f.inc.Record(inc)
		f.met.Incidents.Add(1)
	}
}

// Results streams every cell's frame results, tagged by cell. The
// channel closes after Stop once all cells have finished.
func (f *Fleet) Results() <-chan CellResult { return f.results }

// Drain stops admitting new frames fleet-wide and waits until every cell
// has delivered a result for each admitted frame (engines reap stalled
// frames via their FrameTimeout, so the wait terminates under loss).
// Returns an error listing unfinished cells if timeout elapses first.
func (f *Fleet) Drain(timeout time.Duration) error {
	f.draining.Store(true)
	for _, c := range f.cells {
		if s := CellState(c.state.Load()); s == Active || s == Degraded {
			c.state.Store(int32(Draining))
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		pending := 0
		for _, c := range f.cells {
			if c.finished.Load() < c.admitted.Load() {
				pending++
			}
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: drain timed out with %d cells still finishing", pending)
		}
		time.Sleep(time.Millisecond)
	}
}

// Stop shuts every cell down (closing its ring), waits for the result
// forwarders, and closes the fleet result stream. Idempotent.
func (f *Fleet) Stop() {
	f.stopOnce.Do(func() {
		for _, c := range f.cells {
			c.eng.Stop()
			c.state.Store(int32(Stopped))
		}
		f.fwdWG.Wait()
		f.serveWG.Wait()
		close(f.results)
	})
}

// Cells returns the cell count.
func (f *Fleet) Cells() int { return len(f.cells) }

// State returns cell i's lifecycle state.
func (f *Fleet) State(i int) CellState { return CellState(f.cells[i].state.Load()) }

// Shed returns the total packets the router refused across cells
// (degraded or draining shedding), plus packets addressed to cells the
// fleet does not have.
func (f *Fleet) Shed() int64 {
	n := f.misroute.Load()
	for _, c := range f.cells {
		n += c.shed.Load()
	}
	return n
}

// Incidents merges every cell's flight-recorder captures with the
// fleet's own shed incidents, tagged by cell and ordered by capture
// time. Safe mid-run.
func (f *Fleet) Incidents() []obs.Incident {
	var out []obs.Incident
	for _, c := range f.cells {
		for _, inc := range c.eng.Incidents() {
			inc.Cell = c.id
			out = append(out, inc)
		}
	}
	out = append(out, f.inc.Snapshot()...)
	sort.Slice(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// Engine returns cell i's engine, for tests and drill-down tooling.
func (f *Fleet) Engine(i int) *core.Engine { return f.cells[i].eng }

// Snapshot aggregates every cell's metrics snapshot into the fleet view
// cmd/agora publishes over expvar. The fleet's own merged histograms
// supply the latency percentiles and SLO rows (per-cell summaries cannot
// be merged after the fact).
func (f *Fleet) Snapshot() obs.FleetSnapshot {
	cells := make([]obs.CellSnap, len(f.cells))
	for i, c := range f.cells {
		cells[i] = obs.CellSnap{
			Cell:     c.id,
			State:    CellState(c.state.Load()).String(),
			Snapshot: c.eng.MetricsSnapshot(),
		}
	}
	fs := obs.AggregateSnapshots(cells, &f.met)
	fs.Shed = f.Shed()
	return fs
}
