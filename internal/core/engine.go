package core

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fft"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/mat"
	"repro/internal/modulation"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/sched"
)

// FrameResult reports one processed frame, including the milestones
// Figure 13(b) plots.
type FrameResult struct {
	Frame                                 uint32
	Dropped                               bool // abandoned at FrameTimeout, or refused: slot held (DESIGN §15)
	FirstPkt                              time.Time
	Start                                 time.Time // first task enqueued (queuing delay = Start-FirstPkt)
	PilotDone, ZFDone, DecodeDone, TXDone time.Time
	// FirstTX is when the first downlink packet left for the RRU; with
	// Options.StaleDLSymbols it precedes ZFDone (§3.4.2).
	FirstTX time.Time
	// Latency is DecodeDone-FirstPkt for uplink frames, TXDone-FirstPkt
	// for downlink-only frames.
	Latency time.Duration
	// BlocksOK / BlocksTotal count uplink code blocks that passed parity.
	BlocksOK, BlocksTotal int
	// Bits holds decoded uplink bits [symbol][user] when Options.KeepBits
	// is set (nil entries for non-uplink symbols).
	Bits [][][]byte
	// OKMask mirrors Bits with per-block parity outcomes.
	OKMask [][]bool
	// Rec is the frame's live SLO attribution record (DESIGN §12):
	// per-stage busy/span nanoseconds relative to the engine epoch.
	// Zero when Options.DisableRecorder is set.
	Rec obs.FrameRec
}

// Engine is one Agora instance bound to a fronthaul transport.
type Engine struct {
	cfg  frame.Config
	opts Options

	buf  *buffers
	plan *fft.Plan
	code *ldpc.Code

	scUsed      int // subcarriers actually carrying code bits
	hasDownlink bool
	dlGain      float64

	taskQ [queue.NumTaskTypes]*queue.Q
	compQ *queue.Q
	rxQ   *queue.Q

	tr      fronthaul.Transport
	results chan FrameResult
	// deliver hands each retired frame's result on, on the manager
	// goroutine: sendResult unless SetResultSink replaced it.
	deliver func(FrameResult)

	// tx, netTX, is a worker over TaskPacketTX alone, on the trace lane
	// after the workers'. takers[t] lists the parkers (idle.go) of the
	// roles that poll task type t.
	workers []*worker
	tx      *worker
	mgrPark *parker
	takers  [queue.NumTaskTypes][]*parker

	// handoff gates the stage-edge handoff (handoff.go): on when the
	// workers can fill every processor, read once here. left holds each
	// slot's per-type countdowns, armed when a frame is admitted.
	handoff bool
	left    []slotCountdowns

	// Observability (see internal/obs): trace is the per-worker event
	// tracer (nil when Options.DisableTracing) and met the always-on live
	// counter set.
	trace *obs.Tracer
	met   obs.Metrics

	// epoch anchors every nanosecond stamp in the obs plane — trace
	// events, Msg.T0/T1 completion stamps, FrameRec bounds — so the live
	// SLO attribution and the trace events folded per frame agree
	// bit-for-bit on the same frame (DESIGN §12).
	epoch time.Time
	// recorder gates the SLO attribution + flight recorder
	// (!Options.DisableRecorder); incidents is the post-mortem ring.
	recorder  bool
	incidents *obs.IncidentRing

	// slotOwner is each buffer slot's owner word: heldBy(id) while frame
	// id holds the slot, 0 when it is free. Only the RX goroutine sets a
	// held word (claim) and only the manager frees one (retire).
	slotOwner []atomic.Uint64
	// Fronthaul counter baselines stored by the RX goroutine when a frame
	// claims its slot, before the owner word is published. The owner word
	// pins them while the frame holds the slot, and retire reads them, so
	// an incident's SeqGaps/SeqLate/FEC deltas cover the frame's own
	// window even when RX ingests the whole burst before the manager
	// admits.
	slotGapBase  []atomic.Int64
	slotLateBase []atomic.Int64
	slotFECBase  []atomic.Int64
	drops        atomic.Int64

	// Zero-copy RX (DESIGN §15, see ingest.go): payloads are leased in
	// place on transport buffers. rxFree pools payload-sized buffers for
	// injected and FEC-reconstructed payloads, which have no transport
	// buffer to lease.
	payloadLen int
	rxLease    [][][]rxLease // [slot][symbol][antenna]; nil rows off the RX path
	rxFree     chan []byte

	// rxSlots is the RX goroutine's private per-slot state: the newest
	// frame id of each slot, its arrival flags and its Reed-Solomon
	// accumulators (Options.FECParity, see ingest.go). fec is the code and
	// the fec* slices are its reconstruction scratch.
	rxSlots []rxSlot
	fec     *fronthaul.FEC
	fecLost []int
	fecRows []int
	fecDst  [][]byte

	// rxSeqLast is the Seq high-water mark for loss accounting; single
	// RX producer, plain memory.
	rxSeqLast uint64

	macPattern [][][]byte // [symbol][user] downlink truth bits

	stop    chan struct{}
	wg      sync.WaitGroup
	started bool
	prevGC  int

	// manager-private. dag is the frame DAG (internal/sched): task
	// counters, release rules, admission gate and poll orders. slots holds
	// one record per buffer slot, allocated here and reused by every frame
	// the slot holds, so the steady-state loop touches no maps and
	// allocates nothing (DESIGN §14): a frame's buffer slot (Msg.Slot) is
	// its index everywhere. pendingCnt counts the slotPending records.
	dag        *sched.Sched
	zfc        zfCacheState
	slots      []slotRec
	pendingCnt int
	txSeq      uint64
}

// zfCacheState is the coherence-cached zero-forcing state (DESIGN §14):
// a snapshot of one frame's CSI/equalizer/precoder per ZF group, served
// to subsequent frames whose pilot estimate stays within the coherence
// window. Owned by the manager; workers only read the matrices through
// cache-copy tasks whose enqueue/dequeue pair orders the accesses, and
// copies (in-flight cache-copy tasks) gates refresh so the manager never
// rewrites matrices a worker may still be reading.
type zfCacheState struct {
	enabled bool
	valid   bool
	age     int // frames served since the last refresh
	copies  int // in-flight cache-copy ZF tasks
	csi     []*mat.M
	eq      []*mat.M
	pre     []*mat.M // nil without downlink symbols
	// csiNormSq is Σ_g ‖csi[g]‖²_F, the hit test's denominator, summed
	// in group order when the snapshot is taken.
	csiNormSq float64
}

// slotPhase is where a buffer slot's record is in the frame lifecycle.
type slotPhase uint8

const (
	// slotFree: no frame. A claim the RX goroutine has made is still
	// free here until its first RX message reaches the manager.
	slotFree slotPhase = iota
	// slotPending: a frame's RX messages are held until the admission
	// gate opens.
	slotPending
	// slotLive: admitted; the frame DAG runs it.
	slotLive
)

// slotRec is the manager's record of one buffer slot and the frame it
// holds: the frame's DAG state (ID, Slot and the task counters), its
// phase, the RX messages held while it is pending, and what only the
// engine tracks. Every frame that held the slot leaves it through retire.
type slotRec struct {
	sched.Frame
	phase slotPhase
	// held buffers a pending frame's RX messages. Its backing array is
	// allocated in NewEngine with the frame's maximum RX count (the
	// arrival flags bound it) and reused across frames.
	held []queue.Msg

	firstPkt time.Time
	start    time.Time

	pilotDoneT, zfDoneT, decodeDoneT, txDoneT, firstTXT time.Time

	// zfCached marks a coherence-cache hit: this frame's ZF tasks copy
	// the cached matrices instead of recomputing.
	zfCached bool

	// rec is the frame's live SLO attribution record, filled by the
	// manager from completion stamps (DESIGN §12).
	rec obs.FrameRec
}

// NewEngine constructs an engine for cfg over transport tr. cfg is
// validated; tr may be nil only if the caller feeds packets through
// InjectPacket (tests).
func NewEngine(cfg frame.Config, opts Options, tr fronthaul.Transport) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.DisableBatching {
		cfg = cfg.Unbatched()
	}
	dag, err := sched.New(&cfg, sched.Params{Mode: opts.Mode, Workers: opts.Workers,
		StaleDLSymbols: opts.StaleDLSymbols})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:         cfg,
		opts:        opts,
		tr:          tr,
		dag:         dag,
		code:        cfg.Code(),
		hasDownlink: cfg.NumDownlink() > 0,
		results:     make(chan FrameResult, 1024),
		stop:        make(chan struct{}),
	}
	e.deliver = e.sendResult
	e.plan, err = fft.NewPlan(cfg.OFDMSize)
	if err != nil {
		return nil, err
	}
	e.scUsed = cfg.UsedSubcarriers()
	e.dlGain = 0.25 // keeps 12-bit TX quantization comfortable
	e.buf = newBuffers(&e.cfg, opts.Slots, opts.DisableMemOpt)
	if err := e.initIngest(); err != nil {
		return nil, err
	}
	e.slotOwner = make([]atomic.Uint64, opts.Slots)
	e.slotGapBase = make([]atomic.Int64, opts.Slots)
	e.slotLateBase = make([]atomic.Int64, opts.Slots)
	e.slotFECBase = make([]atomic.Int64, opts.Slots)
	e.handoff = opts.Workers >= runtime.GOMAXPROCS(0)
	e.left = make([]slotCountdowns, opts.Slots)
	task, rx, comp := e.queueDepths()
	for t := queue.TaskType(0); t < queue.NumTaskTypes; t++ {
		e.taskQ[t] = queue.New(task[t])
	}
	e.compQ = queue.New(comp)
	e.rxQ = queue.New(rx)
	// One record per buffer slot: everything the manager touches per
	// frame is provisioned here, so the steady-state loop allocates
	// nothing.
	e.slots = make([]slotRec, opts.Slots)
	maxRx := (cfg.NumPilots() + cfg.NumUplink()) * cfg.Antennas
	for s := range e.slots {
		f := &e.slots[s]
		f.Frame = dag.NewFrame()
		f.Slot = uint32(s)
		f.held = make([]queue.Msg, 0, maxRx)
	}
	e.met.FreeStates.Store(int64(opts.Slots))
	e.zfc.enabled = !opts.DisableZFCache
	if e.zfc.enabled {
		g := cfg.ZFGroups()
		e.zfc.csi = make([]*mat.M, g)
		e.zfc.eq = make([]*mat.M, g)
		for i := 0; i < g; i++ {
			e.zfc.csi[i] = mat.New(cfg.Antennas, cfg.Users)
			e.zfc.eq[i] = mat.New(cfg.Users, cfg.Antennas)
		}
		if e.hasDownlink {
			e.zfc.pre = make([]*mat.M, g)
			for i := 0; i < g; i++ {
				e.zfc.pre[i] = mat.New(cfg.Antennas, cfg.Users)
			}
		}
	}
	e.initMACPattern()
	e.met.FrameBudgetNS.Store(cfg.FrameDuration().Nanoseconds())
	// The platform's kernels (internal/cpu), except that the textbook GEMM
	// (DisableJITGemm) is a Go loop everywhere.
	gemm := mat.Kernel()
	if opts.DisableJITGemm {
		gemm = "generic"
	}
	e.met.Kernels = []obs.KernelRow{
		{Stage: "decode", Kernel: ldpc.Kernel()},
		{Stage: "fft", Kernel: fft.Kernel()},
		{Stage: "demod", Kernel: modulation.Kernel()},
		{Stage: "gemm", Kernel: gemm},
	}
	if opts.FECParity > 0 {
		e.met.Kernels = append(e.met.Kernels, obs.KernelRow{Stage: "fec", Kernel: fronthaul.Kernel()})
	}
	e.epoch = time.Now()
	e.recorder = !opts.DisableRecorder
	if e.recorder {
		e.incidents = obs.NewIncidentRing(incidentCapacity)
	}
	if !opts.DisableTracing {
		// One lane per worker plus one for the network TX thread; lanes
		// are single-writer so emission stays lock- and allocation-free.
		// The tracer shares the engine epoch so trace stamps and the SLO
		// recorder's completion stamps are directly comparable.
		e.trace = obs.NewTracer(opts.Workers+1, opts.TraceCapacity)
	}
	e.mgrPark = &parker{run: e.role(e.runManager), queues: []*queue.Q{e.compQ, e.rxQ}}
	e.tx = &worker{id: opts.Workers, eng: e, order: []queue.TaskType{queue.TaskPacketTX}}
	for i := 0; i <= opts.Workers; i++ {
		w := e.tx
		if i < opts.Workers {
			w = newWorker(i, e)
			e.workers = append(e.workers, w)
		}
		w.park = &parker{run: e.role(func() { e.runWorker(w) })}
		for _, t := range w.order {
			w.park.queues = append(w.park.queues, e.taskQ[t])
			e.takers[t] = append(e.takers[t], w.park)
		}
	}
	return e, nil
}

// queueDepths derives per-queue message capacities from the frame
// geometry. Each task type has a hard per-frame bound on the number of
// messages it can have in flight (a message carries >= 1 task), so sizing
// a queue at that bound times the slot count — doubled for headroom and
// floored for degenerate geometries — is provably enough, and for the
// paper's cell sizes is one to two orders of magnitude smaller than a
// uniform worst-case depth. queue.New rounds each figure up to a power of
// two.
func (e *Engine) queueDepths() (task [queue.NumTaskTypes]int, rx, comp int) {
	scale := func(n int) int {
		return max(n*e.opts.Slots*2, 64)
	}
	total := 0
	for t := range task {
		n := e.dag.Tasks(queue.TaskType(t))
		total += n
		task[t] = scale(n)
	}
	rx = scale(e.dag.Tasks(queue.TaskPilotFFT) + e.dag.Tasks(queue.TaskFFT))
	comp = scale(total)
	return task, rx, comp
}

// initMACPattern fills the downlink payload for every slot once; the
// pattern is deterministic so experiments can verify user-side reception.
func (e *Engine) initMACPattern() {
	rng := rand.New(rand.NewSource(0x5EED))
	nSym := e.cfg.NumSymbols()
	e.macPattern = make([][][]byte, nSym)
	for s := 0; s < nSym; s++ {
		if e.cfg.SymbolAt(s) != frame.Downlink {
			continue
		}
		e.macPattern[s] = make([][]byte, e.cfg.Users)
		for u := 0; u < e.cfg.Users; u++ {
			bits := make([]byte, e.code.K())
			for i := range bits {
				bits[i] = byte(rng.Intn(2))
			}
			e.macPattern[s][u] = bits
			for slot := 0; slot < e.opts.Slots; slot++ {
				copy(e.buf.macBits[slot][s][u], bits)
			}
		}
	}
}

// DownlinkTruth returns the MAC bits carried on downlink symbol sym for
// user u (nil for non-downlink symbols).
func (e *Engine) DownlinkTruth(sym, u int) []byte {
	if e.macPattern[sym] == nil {
		return nil
	}
	return e.macPattern[sym][u]
}

// Start launches the manager, workers and network goroutines.
func (e *Engine) Start() {
	if e.started {
		panic("core: Engine started twice")
	}
	e.started = true
	if e.opts.RealTime {
		e.prevGC = debug.SetGCPercent(800)
	}
	provisionGoroutines()
	for _, w := range e.workers {
		e.start(w.park.run)
	}
	e.start(e.mgrPark.run)
	e.start(e.role(e.runClock))
	if e.tr != nil {
		e.start(e.role(e.runNetRX))
		if e.hasDownlink {
			e.start(e.tx.park.run)
		}
	}
}

// Results delivers exactly one FrameResult per frame that claimed a
// buffer slot or was refused one (DESIGN §15), completed or Dropped.
// The send never blocks the manager: a report that finds the channel
// full is dropped and counted in Metrics().ResultsLost. With a sink set
// (SetResultSink) the channel receives nothing; it closes at Stop.
func (e *Engine) Results() <-chan FrameResult { return e.results }

// SetResultSink makes sink, in place of the Results channel, the
// destination of every FrameResult. Call it before Start. sink runs on
// the manager goroutine, once per retired frame in retire order, so it
// must not block: the next frame's tasks wait for it to return.
func (e *Engine) SetResultSink(sink func(FrameResult)) {
	if e.started {
		panic("core: SetResultSink after Start")
	}
	e.deliver = sink
}

// sendResult is the default delivery: a non-blocking send on the
// Results channel.
func (e *Engine) sendResult(res FrameResult) {
	select {
	case e.results <- res:
	default: // consumer too slow; drop the report, not the pipeline
		e.met.ResultsLost.Add(1)
	}
}

// Slots returns the number of frame buffer slots (Options.Slots after
// defaults); frame id maps to slot id mod Slots.
func (e *Engine) Slots() int { return e.opts.Slots }

// Drops returns the count of fronthaul packets discarded at admission.
func (e *Engine) Drops() int64 { return e.drops.Load() }

// Stop shuts the engine down and waits for all goroutines.
func (e *Engine) Stop() {
	select {
	case <-e.stop:
		return
	default:
		close(e.stop)
	}
	if e.tr != nil {
		_ = e.tr.Close()
	}
	e.wg.Wait()
	// Completions the workers queued after the manager's last drain still
	// count toward the per-type task totals.
	for m, ok := e.compQ.TryDequeue(); ok; m, ok = e.compQ.TryDequeue() {
		e.observeTask(m)
	}
	if e.opts.RealTime {
		debug.SetGCPercent(e.prevGC)
	}
	close(e.results)
}

// stamp converts t to nanoseconds since the engine epoch — the time base
// shared by trace events, completion stamps, and FrameRec bounds.
func (e *Engine) stamp(t time.Time) int64 { return t.Sub(e.epoch).Nanoseconds() }

// nowStamp is stamp(time.Now()) for the per-task hot paths: the epoch
// carries a monotonic reading, so time.Since reads only the monotonic
// clock instead of wall + monotonic.
func (e *Engine) nowStamp() int64 { return time.Since(e.epoch).Nanoseconds() }

// Metrics exposes the engine's live, race-safe counters and gauges
// (frame/drop/deadline counts, latency histogram, sampled queue depths).
func (e *Engine) Metrics() *obs.Metrics { return &e.met }

// Incidents returns the flight recorder's retained post-mortems, oldest
// first. Safe to call at any time; nil recorder (DisableRecorder) yields
// an empty slice.
func (e *Engine) Incidents() []obs.Incident {
	if e.incidents == nil {
		return nil
	}
	return e.incidents.Snapshot()
}

// IncidentCount returns the total number of incidents ever captured
// (retained or not). Safe mid-run.
func (e *Engine) IncidentCount() uint64 {
	if e.incidents == nil {
		return 0
	}
	return e.incidents.Count()
}

// MetricsSnapshot builds the JSON-friendly snapshot cmd/agora publishes
// over expvar: the live counters, the per-task cost table (paper Table 3)
// included, plus the transport's packet counters. Safe mid-run; after
// Stop its Tasks cover every task the engine ran.
func (e *Engine) MetricsSnapshot() obs.Snapshot {
	s := e.met.Snap()
	s.Fronthaul.RxDrops = e.drops.Load()
	if e.tr != nil {
		st := e.tr.Stats()
		s.Fronthaul.TxPkts = st.TxPkts
		s.Fronthaul.TxDrops = st.TxDrops
		s.Fronthaul.RxPkts = st.RxPkts
	}
	return s
}

// TracingEnabled reports whether the event tracer is capturing.
func (e *Engine) TracingEnabled() bool { return e.trace.Enabled() }

// TraceEvents returns the captured event window sorted by start time.
// Call after Stop: the rings are single-writer plain memory, readable
// only at quiescence (live dashboards should use Metrics instead).
func (e *Engine) TraceEvents() []obs.Event { return e.trace.Snapshot() }

// Timeline folds the captured trace into worker-lane utilisation. Call
// after Stop. Per-frame stage spans are each FrameResult's Rec.
func (e *Engine) Timeline() *obs.Timeline { return obs.Reconstruct(e.TraceEvents()) }

// WriteChromeTrace renders the captured trace window as Chrome
// trace_event JSON (chrome://tracing, Perfetto). Call after Stop.
func (e *Engine) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, e.TraceEvents())
}

// InjectPacket feeds one fronthaul packet directly (test hook bypassing
// the transport). The packet is parsed synchronously; the payload is
// always copied — callers reuse the backing array — into a leased
// engine-pool buffer. It must not race Stop: it may start the manager.
func (e *Engine) InjectPacket(pkt []byte) error {
	_, err := e.acceptPacket(pkt, false)
	return err
}

// sendTX sends one antenna's downlink packet to the RRU. The IFFT task
// has already written the payload in wire form (DESIGN §10, TX back
// end), so netTX only stamps the header in front of it; Send copies the
// packet out before it returns.
func (e *Engine) sendTX(m queue.Msg) {
	h := fronthaul.Header{Frame: m.Frame, Symbol: m.Symbol, Antenna: m.TaskIdx,
		Dir: fronthaul.DirDownlink, Seq: atomic.AddUint64(&e.txSeq, 1),
		Samples: uint32(e.cfg.SamplesPerSymbol())}
	pkt := e.buf.dlTime[m.Slot][m.Symbol][m.TaskIdx]
	h.Encode(pkt)
	_ = e.tr.Send(pkt)
}

// runWorker is the worker loop, netTX's too: poll task queues in priority
// order, execute, report completion (§3.3). The paper busy-polls on
// dedicated isolated cores; on shared cores an empty poll follows the
// engine's one idle rule (idle): spin a bounded number of polls, then
// park, returning until the manager's flush starts the role again. The
// last task of its type in its frame hands the processor to the manager
// (handoff.go).
func (e *Engine) runWorker(w *worker) {
	for {
		var m queue.Msg
		got := false
		for _, t := range w.order {
			if mm, ok := e.taskQ[t].TryDequeue(); ok {
				m = mm
				got = true
				break
			}
		}
		if !got {
			if !e.idle(w.park) {
				return
			}
			continue
		}
		w.park.polls = 0
		// Execution stamps ride back to the manager on the completion
		// message itself (former Msg padding): the manager's fold accounts
		// the task time from them (onCompletion), and the trace event
		// carries the same two clock reads.
		m.T0 = e.nowStamp()
		e.execute(w, m)
		m.T1 = e.nowStamp()
		if e.trace != nil {
			e.trace.Emit(obs.Event{
				Start: m.T0, End: m.T1,
				Frame: m.Frame, Symbol: m.Symbol, TaskIdx: m.TaskIdx,
				Lane: uint16(w.id), Type: m.Type, Batch: m.Batch,
			})
		}
		last := e.handoff && e.lastOfType(m)
		for !e.compQ.TryEnqueue(m) {
			runtime.Gosched()
		}
		e.wakeUp(e.mgrPark)
		if last { // the manager just woken runs on this processor next
			e.met.Handoffs.Add(1)
			runtime.Gosched()
		}
	}
}

// execute dispatches one (possibly batched) task message.
func (e *Engine) execute(w *worker, m queue.Msg) {
	batch := int(m.Batch)
	if batch < 1 {
		batch = 1
	}
	slot := int(m.Slot)
	// An FFT message's antennas are consecutive, so the whole message is
	// one run: one lane per antenna, a run of one included.
	switch m.Type {
	case queue.TaskPilotFFT:
		w.runPilotFFT(slot, m.Symbol, int(m.TaskIdx), batch, e.pilotIndex(m.Symbol))
		return
	case queue.TaskFFT:
		w.runFFT(slot, m.Symbol, int(m.TaskIdx), batch)
		return
	case queue.TaskIFFT:
		w.runIFFT(slot, m.Symbol, int(m.TaskIdx), batch)
		return
	case queue.TaskPacketTX:
		e.sendTX(m)
		return
	}
	for i := 0; i < batch; i++ {
		idx := int(m.TaskIdx) + i
		switch m.Type {
		case queue.TaskZF:
			// Aux==1 marks a coherence-cache hit: install the cached
			// matrices instead of recomputing (DESIGN §14).
			if m.Aux == 1 {
				w.copyCachedZF(slot, idx)
			} else {
				w.runZF(slot, idx)
			}
		case queue.TaskDemod:
			w.runDemod(slot, m.Symbol, idx)
		case queue.TaskDecode:
			w.runDecode(slot, m.Symbol, idx)
		case queue.TaskEncode:
			w.runEncode(slot, m.Symbol, idx)
		case queue.TaskPrecode:
			preSlot := slot
			if m.Aux > 0 {
				preSlot = int(m.Aux - 1)
			}
			w.runPrecode(slot, m.Symbol, idx, preSlot)
		default:
			panic(fmt.Sprintf("core: worker got %v", m.Type))
		}
	}
}

// pilotIndex returns the position of pilot symbol sym among the frame's
// pilot symbols (the time-orthogonal pilot's user index).
func (e *Engine) pilotIndex(sym uint16) int {
	pi := 0
	for s := 0; s < int(sym); s++ {
		if e.cfg.SymbolAt(s) == frame.Pilot {
			pi++
		}
	}
	return pi
}
