package core

// The frame lifecycle (DESIGN §15): the id rule at RX, one record per
// buffer slot, one retire path. Regression tests pin the three ways the
// lifecycle used to fail; a seeded, goroutine-free driver then runs
// adversarial schedules through the production acceptPacket, manager
// drain, worker execute and reapStale, and checks after each that every
// frame got exactly one result and the engine is back at its initial
// occupancy.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/fronthaul"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/workload"
)

// BenchmarkManagerFrame is the manager's own cost per frame, with no
// worker, kernel or transport: each iteration feeds one small_frames
// frame through managerFrame. It must stay at 0 allocs/op.
func BenchmarkManagerFrame(b *testing.B) {
	e, err := NewEngine(smallCfg(), Options{Workers: 2, DisableRecorder: true, DisableZFCache: true}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		managerFrame(e, uint32(i))
		if r := <-e.results; r.Dropped {
			b.Fatal("frame dropped")
		}
	}
}

// managerFrame runs frame id through an un-started engine's manager
// alone: its RX notifications (8×2, "PUU") go through onRX, and every
// task the frame DAG releases goes straight back through onCompletion,
// as runManager does, until the frame retires.
func managerFrame(e *Engine, id uint32) {
	cfg := &e.cfg
	slot := int(id) % e.opts.Slots
	e.slotOwner[slot].Store(heldBy(id)) // what acceptPacket's claim does
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
}

// TestResultsLostCounted retires more frames than Results() holds with
// nobody reading it: every frame past the channel's capacity loses its
// report, and each such loss is counted, so delivered + lost equals the
// frames retired.
func TestResultsLostCounted(t *testing.T) {
	e, err := NewEngine(smallCfg(), Options{Workers: 2, DisableRecorder: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	frames := cap(e.results) + 37
	for i := 0; i < frames; i++ {
		managerFrame(e, uint32(i))
	}
	retired := e.met.FramesDone.Load() + e.met.FramesDropped.Load()
	delivered, lost := int64(len(e.results)), e.met.ResultsLost.Load()
	if retired != int64(frames) || delivered+lost != retired || lost != 37 {
		t.Fatalf("%d frames: %d retired, %d results delivered + %d lost", frames, retired, delivered, lost)
	}
	if s := e.met.Snap(); s.ResultsLost != lost {
		t.Fatalf("snapshot results_lost %d, metric %d", s.ResultsLost, lost)
	}
}

// injectEngine starts a smallCfg engine with KeepBits that only
// InjectPacket feeds, and the generator of its traffic.
func injectEngine(t *testing.T, opts Options) (*Engine, *workload.Generator) {
	t.Helper()
	gen, err := workload.NewGenerator(smallCfg(), channel.Rayleigh, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts.KeepBits = true
	eng, err := NewEngine(smallCfg(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	t.Cleanup(eng.Stop)
	return eng, gen
}

// emitPackets returns private copies of frame id's packets.
func emitPackets(t *testing.T, gen *workload.Generator, id uint32) [][]byte {
	t.Helper()
	var pkts [][]byte
	if err := gen.EmitFrame(id, func(p []byte) error {
		pkts = append(pkts, slices.Clone(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return pkts
}

// injectAll injects packets that must all be accepted.
func injectAll(t *testing.T, eng *Engine, pkts [][]byte) {
	t.Helper()
	for _, p := range pkts {
		if err := eng.InjectPacket(p); err != nil {
			t.Fatal(err)
		}
	}
}

// nextResult waits up to d for the engine's next FrameResult.
func nextResult(eng *Engine, d time.Duration) (FrameResult, bool) {
	select {
	case r := <-eng.Results():
		return r, true
	case <-time.After(d):
		return FrameResult{}, false
	}
}

// wantDecoded asserts r is frame id, completed, with exactly the bits of
// the generator's last emitted frame.
func wantDecoded(t *testing.T, gen *workload.Generator, r FrameResult, id uint32) {
	t.Helper()
	if r.Frame != id || r.Dropped {
		t.Fatalf("want frame %d decoded, got frame %d dropped=%v", id, r.Frame, r.Dropped)
	}
	cfg := &gen.Cfg
	byUser := make([][][]byte, cfg.Users) // CompareUplink wants [user][symbol]
	for u := range byUser {
		byUser[u] = make([][]byte, cfg.NumSymbols())
		for s := range byUser[u] {
			if r.Bits[s] != nil {
				byUser[u][s] = r.Bits[s][u]
			}
		}
	}
	bitErrs, bits, blockErrs, blocks := gen.CompareUplink(byUser)
	if bits == 0 || bitErrs != 0 || blockErrs != 0 {
		t.Fatalf("frame %d: %d/%d bit errors, %d/%d block errors", id, bitErrs, bits, blockErrs, blocks)
	}
}

// TestLateDuplicateOfFinishedFrame: a packet of a frame that already
// finished is late. It yields no second result and leaves the slot free.
func TestLateDuplicateOfFinishedFrame(t *testing.T) {
	const timeout = 300 * time.Millisecond
	eng, gen := injectEngine(t, Options{Workers: 2, FrameTimeout: timeout})
	pkts := emitPackets(t, gen, 0)
	injectAll(t, eng, pkts)
	r, ok := nextResult(eng, 20*time.Second)
	if !ok {
		t.Fatal("frame 0 timed out")
	}
	wantDecoded(t, gen, r, 0)
	if err := eng.InjectPacket(pkts[0]); err == nil {
		t.Fatal("late duplicate of finished frame 0 accepted")
	}
	if eng.slotOwner[0].Load() != 0 {
		t.Fatal("late duplicate claimed slot 0")
	}
	if r, ok := nextResult(eng, 3*timeout); ok {
		t.Fatalf("second result for a finished frame: frame %d dropped=%v", r.Frame, r.Dropped)
	}
}

// TestRefusedFrameOneResult: frame f+Slots arrives while f, one packet
// short, still holds slot f mod Slots. It is refused as a frame: exactly
// one Dropped result, at once and not at FrameTimeout, and its later
// packets claim nothing. f then completes, and f+2·Slots decodes its own
// bits in the same slot.
func TestRefusedFrameOneResult(t *testing.T) {
	const slots = 8
	eng, gen := injectEngine(t, Options{Workers: 2, Slots: slots, FrameTimeout: 5 * time.Second})
	f0 := emitPackets(t, gen, 0)
	f8 := emitPackets(t, gen, slots)
	injectAll(t, eng, f0[:len(f0)-1])
	for _, p := range f8 {
		if err := eng.InjectPacket(p); err == nil {
			t.Fatal("frame 8 packet accepted while frame 0 holds slot 0")
		}
	}
	r, ok := nextResult(eng, time.Second)
	if !ok || r.Frame != slots || !r.Dropped {
		t.Fatalf("want one prompt Dropped result for frame %d, got ok=%v frame %d dropped=%v",
			slots, ok, r.Frame, r.Dropped)
	}
	for _, p := range f8 {
		if err := eng.InjectPacket(p); err == nil {
			t.Fatal("refused frame's later packet accepted")
		}
	}
	injectAll(t, eng, f0[len(f0)-1:])
	if r, ok := nextResult(eng, 20*time.Second); !ok || r.Frame != 0 || r.Dropped {
		t.Fatalf("frame 0: ok=%v frame %d dropped=%v", ok, r.Frame, r.Dropped)
	}
	injectAll(t, eng, emitPackets(t, gen, 2*slots))
	r, ok = nextResult(eng, 20*time.Second)
	if !ok {
		t.Fatal("frame 16 timed out")
	}
	wantDecoded(t, gen, r, 2*slots)
	if r, ok := nextResult(eng, 200*time.Millisecond); ok {
		t.Fatalf("extra result: frame %d dropped=%v", r.Frame, r.Dropped)
	}
}

// TestStaleArrivalFlag: a duplicate of frame 0 that passes the owner check
// just before frame 0 retires sets its arrival flag after slot 0 is free
// again. Frame 8, the slot's next claimant, must still have every packet
// accepted and decode.
func TestStaleArrivalFlag(t *testing.T) {
	const slots = 8
	eng, gen := injectEngine(t, Options{Workers: 2, Slots: slots, FrameTimeout: 5 * time.Second})
	f0 := emitPackets(t, gen, 0)
	injectAll(t, eng, f0)
	r, ok := nextResult(eng, 20*time.Second)
	if !ok {
		t.Fatal("frame 0 timed out")
	}
	wantDecoded(t, gen, r, 0)
	var h fronthaul.Header
	if err := h.Decode(f0[len(f0)-1]); err != nil {
		t.Fatal(err)
	}
	eng.rxSlots[0].got[h.Symbol][h.Antenna] = true // what the racing duplicate leaves
	injectAll(t, eng, emitPackets(t, gen, slots))
	r, ok = nextResult(eng, 20*time.Second)
	if !ok {
		t.Fatalf("frame %d timed out", slots)
	}
	wantDecoded(t, gen, r, slots)
}

// TestFrameIDWraparound: frames 2³²−2, 2³²−1, 0 and 1 decode like any
// others. Frame 7 shares 2³²−1's slot and is newer modulo 2³², so sent in
// the middle of 2³²−1 it is refused with one Dropped result and 2³²−1 is
// undisturbed.
func TestFrameIDWraparound(t *testing.T) {
	eng, gen := injectEngine(t, Options{Workers: 2, Slots: 8, FrameTimeout: 5 * time.Second})
	for _, id := range []uint32{math.MaxUint32 - 1, math.MaxUint32, 0, 1} {
		var f7 [][]byte
		if id == math.MaxUint32 {
			f7 = emitPackets(t, gen, 7)
		}
		pkts := emitPackets(t, gen, id)
		injectAll(t, eng, pkts[:len(pkts)/2])
		for _, p := range f7 {
			_ = eng.InjectPacket(p)
		}
		injectAll(t, eng, pkts[len(pkts)/2:])
		refused := 0
		for {
			r, ok := nextResult(eng, 2*time.Second)
			if !ok {
				t.Fatalf("frame %d timed out", id)
			}
			if r.Frame == 7 && r.Dropped {
				refused++
				continue
			}
			wantDecoded(t, gen, r, id)
			break
		}
		if f7 != nil && refused != 1 {
			t.Fatalf("frame 7 got %d refusals, want 1", refused)
		}
	}
	if r, ok := nextResult(eng, 200*time.Millisecond); ok {
		t.Fatalf("extra result: frame %d dropped=%v", r.Frame, r.Dropped)
	}
}

// The adversarial driver. Its engine has two buffer slots, so frames
// collide, FEC parity for the parity paths, and a FrameTimeout no
// schedule reaches: the driver reaps on its own clock.
const driverParity = 2

func driverOpts() Options {
	return Options{Workers: 1, Slots: 2, FECParity: driverParity,
		DisableTracing: true, FrameTimeout: time.Hour}
}

// driverPool is the traffic every schedule draws from: a few generated
// frames' packets in emission order, data then parity per symbol.
var driverPool = sync.OnceValues(func() ([][][]byte, error) {
	gen, err := workload.NewGenerator(smallCfg(), channel.Rayleigh, 30, 5)
	if err != nil {
		return nil, err
	}
	if err := gen.SetFECParity(driverParity); err != nil {
		return nil, err
	}
	pool := make([][][]byte, 3)
	for i := range pool {
		if err := gen.EmitFrame(uint32(i), func(p []byte) error {
			pool[i] = append(pool[i], slices.Clone(p))
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return pool, nil
})

// driverStream is one frame's packets, stamped with its id and sequence
// numbers, and how far the driver has sent them.
type driverStream struct {
	id   uint32
	pkts [][]byte
	next int
}

// lifeDriver runs one schedule against an un-started engine on the
// calling goroutine. It plays the RX goroutine (InjectPacket), the
// manager (drain, reapStale) and one worker (execute) in the order the
// schedule picks; every call is production code.
type lifeDriver struct {
	tb   testing.TB
	name string
	e    *Engine
	pool [][][]byte

	seq  uint64
	next uint32          // next fresh frame id
	open []*driverStream // frames being sent
	done []*driverStream // frames sent through, or given up
	last []byte          // the last packet injected
	held []queue.Msg     // tasks the stalled worker took and has not finished
	mark time.Time       // the reap op drops frames opened before it

	touched map[uint32]bool // ids with a data packet accepted or refused
	results map[uint32]int
	dropped map[uint32]bool
	n       driverCounts
}

// driverCounts tallies what a run exercised; stale counts completions
// that reached a slot another frame held by then.
type driverCounts struct{ completed, dropped, refused, late, stale int }

func (c *driverCounts) add(o driverCounts) {
	c.completed += o.completed
	c.dropped += o.dropped
	c.refused += o.refused
	c.late += o.late
	c.stale += o.stale
}

// driverBases are the first frame ids a schedule can start from: zero,
// just before the 2³² wrap, and the far side of the serial window.
var driverBases = [...]uint32{0, math.MaxUint32 - 2, 1 << 31, 12345}

func newLifeDriver(tb testing.TB, name string) *lifeDriver {
	pool, err := driverPool()
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEngine(smallCfg(), driverOpts(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	// No deadline incidents: the driver's pace is not the air's.
	e.met.FrameBudgetNS.Store(0)
	return &lifeDriver{tb: tb, name: name, e: e, pool: pool,
		touched: map[uint32]bool{}, results: map[uint32]int{}, dropped: map[uint32]bool{}}
}

func (d *lifeDriver) fatalf(format string, args ...any) {
	d.tb.Helper()
	d.tb.Fatalf("%s: %s", d.name, fmt.Sprintf(format, args...))
}

// run interprets sched — a base-id byte, then (op, argument) byte pairs —
// and then drives the engine to quiescence.
func (d *lifeDriver) run(sched []byte) {
	if len(sched) > 0 {
		d.next = driverBases[int(sched[0])%len(driverBases)]
		sched = sched[1:]
	}
	for i := 0; i+1 < len(sched); i += 2 {
		d.makeRoom()
		d.step(sched[i], sched[i+1])
		d.collect()
	}
	d.quiesce()
	d.collect()
}

// Schedule ops, taken modulo driverOps.
const (
	opSendNext   = iota // the next packet of an open frame, in emission order
	opSendAny           // any packet of an open frame: reorder across symbols and frames, duplicates
	opStart             // a new frame: the next id, one a slot ahead, or a reused id
	opDuplicate         // the last packet again
	opLate              // a packet of a frame already sent through
	opTruncate          // the last packet, truncated
	opBitFlip           // the last packet with one header bit flipped
	opParityOnly        // only the parity packets of a new frame
	opLose              // lose 1–4 packets of an open frame
	opRunTask           // the worker runs one task
	opStall             // the worker takes a task and stalls on it
	opUnstall           // the stalled worker finishes what it holds
	opDrain             // the manager drains its queues
	opMark              // set the reap cutoff to now
	opReap              // reap frames opened before the cutoff
	driverOps
)

func (d *lifeDriver) step(op, a byte) {
	switch op % driverOps {
	case opSendNext:
		if s := d.pick(a); s != nil {
			d.inject(s.pkts[s.next])
			d.advance(s, 1)
		}
	case opSendAny:
		if s := d.pick(a); s != nil {
			d.inject(s.pkts[int(a/4)%len(s.pkts)])
		}
	case opStart:
		d.start(a)
	case opDuplicate:
		d.inject(d.last)
	case opLate:
		if len(d.done) > 0 {
			s := d.done[int(a)%len(d.done)]
			d.inject(s.pkts[int(a/4)%len(s.pkts)])
		}
	case opTruncate:
		if len(d.last) > 0 {
			d.inject(d.last[:int(a)%len(d.last)])
		}
	case opBitFlip:
		if len(d.last) > 0 {
			p := slices.Clone(d.last)
			p[int(a/8)%len(p)] ^= 1 << (a % 8) // within the first 32 header bytes
			d.inject(p)
		}
	case opParityOnly:
		s := d.stream(d.next, int(a))
		d.next++
		for _, p := range s.pkts {
			if d.isParity(p) {
				d.inject(p)
			}
		}
		d.done = append(d.done, s)
	case opLose:
		if s := d.pick(a); s != nil {
			d.advance(s, 1+int(a/4)%4)
		}
	case opRunTask:
		if m, ok := d.take(); ok {
			d.finish(m)
		}
	case opStall:
		if len(d.held) == 4 {
			d.unstall()
		}
		if m, ok := d.take(); ok {
			d.held = append(d.held, m)
		}
	case opUnstall:
		d.unstall()
	case opDrain:
		d.e.drain()
	case opMark:
		d.setMark()
	case opReap:
		if !d.mark.IsZero() {
			d.e.reapStale(d.mark.Add(d.e.opts.FrameTimeout))
			d.e.flush()
		}
	}
}

// pick returns one of the open frames, or nil.
func (d *lifeDriver) pick(a byte) *driverStream {
	if len(d.open) == 0 {
		return nil
	}
	return d.open[int(a)%len(d.open)]
}

// advance moves s past n packets; a frame sent through joins done.
func (d *lifeDriver) advance(s *driverStream, n int) {
	s.next = min(s.next+n, len(s.pkts))
	if s.next == len(s.pkts) {
		d.open = slices.DeleteFunc(d.open, func(o *driverStream) bool { return o == s })
		d.done = append(d.done, s)
	}
}

// start opens a new frame: the next id, the id a slot ahead of it (which
// collides with the frame in that slot, if any), or a reused id.
func (d *lifeDriver) start(a byte) {
	if len(d.open) == 2 {
		return
	}
	id := d.next
	switch a % 8 {
	case 6:
		id += uint32(d.e.opts.Slots)
	case 7:
		if len(d.done) > 0 {
			id = d.done[int(a/8)%len(d.done)].id
		}
	}
	if a%8 != 7 {
		d.next = id + 1
	}
	d.open = append(d.open, d.stream(id, int(a/8)))
}

// stream stamps a pool frame's packets with id and fresh sequence
// numbers, so lost packets show as sequence gaps.
func (d *lifeDriver) stream(id uint32, src int) *driverStream {
	pkts := d.pool[src%len(d.pool)]
	s := &driverStream{id: id, pkts: make([][]byte, len(pkts))}
	var h fronthaul.Header
	for i, p := range pkts {
		q := slices.Clone(p)
		if err := h.Decode(q); err != nil {
			d.fatalf("pool packet: %v", err)
		}
		d.seq++
		h.Frame, h.Seq = id, d.seq
		h.Encode(q)
		s.pkts[i] = q
	}
	return s
}

func (d *lifeDriver) isParity(p []byte) bool {
	var h fronthaul.Header
	return h.Decode(p) == nil && int(h.Antenna) >= d.e.cfg.Antennas
}

// inject hands p to the RX path and books what the id rule made of it.
func (d *lifeDriver) inject(p []byte) {
	d.last = p
	var h fronthaul.Header
	decoded := h.Decode(p) == nil
	slot := int(h.Frame) % d.e.opts.Slots
	owner := d.e.slotOwner[slot].Load()
	err := d.e.InjectPacket(p)
	if decoded && owner != heldBy(h.Frame) && d.e.slotOwner[slot].Load() == heldBy(h.Frame) {
		d.checkClaimed(slot, h)
	}
	switch {
	case err == nil && decoded && !d.isParity(p):
		d.touched[h.Frame] = true
	case errors.Is(err, errRefused):
		d.touched[h.Frame] = true
		d.n.refused++
	case errors.Is(err, errLate):
		d.n.late++
	}
}

// checkClaimed asserts that the packet h, which just claimed slot, is the
// only arrival the slot has: the claim cleared every flag the slot's
// previous frame left, so none of that frame's packets can refuse one of
// the new frame's as a duplicate.
func (d *lifeDriver) checkClaimed(slot int, h fronthaul.Header) {
	for sym, row := range d.e.rxSlots[slot].got {
		for a, got := range row {
			if got != (sym == int(h.Symbol) && a == int(h.Antenna)) {
				d.fatalf("frame %d claimed slot %d: arrival flag sym %d ant %d is %v",
					h.Frame, slot, sym, a, got)
			}
		}
	}
}

// take pops the next task in the worker's poll order, as runWorker does.
func (d *lifeDriver) take() (queue.Msg, bool) {
	for _, t := range d.e.dag.Polls()[0] {
		if m, ok := d.e.taskQ[t].TryDequeue(); ok {
			return m, true
		}
	}
	return queue.Msg{}, false
}

// finish runs task m on the worker, takes it off its frame's countdown
// and queues its completion, as runWorker does. A completion whose frame
// no longer holds its slot — reaped, and the slot given to another —
// must leave that frame's countdowns untouched.
func (d *lifeDriver) finish(m queue.Msg) {
	m.T0 = d.e.nowStamp()
	d.e.execute(d.e.workers[0], m)
	m.T1 = d.e.nowStamp()
	if f := &d.e.slots[m.Slot]; f.phase == slotLive && f.ID != m.Frame {
		d.n.stale++
		words := &d.e.left[m.Slot].c
		var before [queue.NumTaskTypes]uint64
		for t := range words {
			before[t] = words[t].w.Load()
		}
		if d.e.lastOfType(m) {
			d.fatalf("stale completion of frame %d fired a handoff for frame %d", m.Frame, f.ID)
		}
		for t := range words {
			if b, a := before[t], words[t].w.Load(); a != b {
				d.fatalf("stale completion of frame %d moved frame %d's countdown %d: %#x -> %#x",
					m.Frame, f.ID, t, b, a)
			}
		}
	} else {
		d.e.lastOfType(m)
	}
	if !d.e.compQ.TryEnqueue(m) {
		d.fatalf("completion queue full")
	}
}

func (d *lifeDriver) unstall() {
	for _, m := range d.held {
		d.finish(m)
	}
	d.held = d.held[:0]
}

// setMark sets the reap cutoff strictly after every frame opened so far
// and strictly before any opened later, so reaping is deterministic.
func (d *lifeDriver) setMark() {
	t0 := time.Now()
	for d.mark = time.Now(); !d.mark.After(t0); d.mark = time.Now() {
	}
	for !time.Now().After(d.mark) {
	}
}

// makeRoom keeps every queue at most a quarter full between steps, as a
// running manager and workers would. The driver is their only
// goroutine, so no call may meet a full queue.
func (d *lifeDriver) makeRoom() {
	e := d.e
	for busy := true; busy; {
		busy = false
		if e.rxQ.Len() > e.rxQ.Cap()/4 || e.compQ.Len() > e.compQ.Cap()/4 {
			e.drain()
			busy = true
		}
		for t := range e.taskQ {
			if e.taskQ[t].Len() > e.taskQ[t].Cap()/4 {
				m, _ := e.taskQ[t].TryDequeue()
				d.finish(m)
				busy = true
			}
		}
	}
}

// quiesce lets the stalled worker go and runs every task, reaping the
// frames still missing packets whenever nothing else moves, until the
// engine is idle.
func (d *lifeDriver) quiesce() {
	for round := 0; round < 100; round++ {
		d.unstall()
		ran := false
		for m, ok := d.take(); ok; m, ok = d.take() {
			d.finish(m)
			ran = true
			if d.e.compQ.Len() > d.e.compQ.Cap()/4 {
				d.e.drain()
			}
		}
		if d.e.drain() || ran {
			continue
		}
		if d.idle() {
			return
		}
		d.e.reapStale(time.Now().Add(2 * d.e.opts.FrameTimeout))
		d.e.flush()
	}
	d.fatalf("engine did not quiesce")
}

func (d *lifeDriver) idle() bool {
	for s := range d.e.slots {
		if d.e.slots[s].phase != slotFree {
			return false
		}
	}
	return d.e.dag.Idle()
}

func (d *lifeDriver) collect() {
	for {
		select {
		case r := <-d.e.results:
			d.results[r.Frame]++
			if r.Dropped {
				d.dropped[r.Frame] = true
				d.n.dropped++
			} else {
				d.n.completed++
			}
		default:
			return
		}
	}
}

// check asserts the lifecycle invariants at quiescence.
func (d *lifeDriver) check() {
	e := d.e
	// 1. Every id that had a packet accepted or refused got exactly one
	// FrameResult, and no other id got any.
	for id := range d.touched {
		if n := d.results[id]; n != 1 {
			d.fatalf("frame %d: %d results, want 1", id, n)
		}
	}
	for id, n := range d.results {
		if !d.touched[id] {
			d.fatalf("frame %d: %d results, but no packet of it was accepted or refused", id, n)
		}
	}
	// 2. Every slot, lease and queue is back at its initial occupancy.
	if got := e.met.FreeStates.Load(); got != int64(e.opts.Slots) {
		d.fatalf("FreeStates = %d, want %d", got, e.opts.Slots)
	}
	if e.pendingCnt != 0 || !e.dag.Idle() {
		d.fatalf("pending %d, DAG idle %v", e.pendingCnt, e.dag.Idle())
	}
	for s := range e.slots {
		if f := &e.slots[s]; f.phase != slotFree || len(f.held) != 0 {
			d.fatalf("slot %d: phase %d with %d held messages", s, f.phase, len(f.held))
		}
		if w := e.slotOwner[s].Load(); w != 0 {
			d.fatalf("slot %d: owner word %#x, want free", s, w)
		}
		for t := range e.left[s].c {
			if w := e.left[s].c[t].w.Load(); w != 0 {
				d.fatalf("slot %d: countdown %d reads %#x, want disarmed", s, t, w)
			}
		}
		for sym, row := range e.rxLease[s] {
			for a := range row {
				if l := &row[a]; l.state.Load() != leaseEmpty || l.pay != nil || l.buf != nil {
					d.fatalf("slot %d sym %d ant %d: lease not empty", s, sym, a)
				}
			}
		}
	}
	for t := range e.taskQ {
		if e.taskQ[t].Len() != 0 {
			d.fatalf("task queue %v not empty", queue.TaskType(t))
		}
	}
	if e.rxQ.Len() != 0 || e.compQ.Len() != 0 {
		d.fatalf("rx/completion queues not empty")
	}
	// 3. One incident per dropped or refused frame, with reason drop or
	// loss.
	if got := e.IncidentCount(); got != uint64(len(d.dropped)) {
		d.fatalf("%d incidents for %d dropped frames", got, len(d.dropped))
	}
	seen := map[uint32]bool{}
	for _, inc := range e.Incidents() {
		if inc.Reason != obs.IncidentDrop && inc.Reason != obs.IncidentLoss {
			d.fatalf("frame %d: incident reason %v", inc.Rec.Frame, inc.Reason)
		}
		if !d.dropped[inc.Rec.Frame] || seen[inc.Rec.Frame] {
			d.fatalf("frame %d: unexpected incident", inc.Rec.Frame)
		}
		seen[inc.Rec.Frame] = true
	}
}

// seededSchedule draws a schedule weighted toward in-order sends, task
// runs and drains, so frames complete as well as collide and go missing.
func seededSchedule(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	weights := [driverOps]int{
		opSendNext: 80, opSendAny: 4, opStart: 6, opDuplicate: 2, opLate: 2,
		opTruncate: 1, opBitFlip: 1, opParityOnly: 1, opLose: 2, opRunTask: 60,
		opStall: 3, opUnstall: 2, opDrain: 16, opMark: 1, opReap: 1,
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	n := 400 + rng.Intn(800)
	sched := []byte{byte(rng.Intn(len(driverBases)))}
	for i := 0; i < n; i++ {
		r := rng.Intn(total)
		op := 0
		for r >= weights[op] {
			r -= weights[op]
			op++
		}
		sched = append(sched, byte(op), byte(rng.Intn(256)))
	}
	return sched
}

// TestLifecycleSchedules runs seeded adversarial schedules through the
// driver and checks the invariants after each: duplicates, reorder across
// symbols and frames, late packets for retired slots, truncated and
// bit-flipped headers, parity with no data, loss beyond FECParity, id
// reuse and wraparound, a stalled worker and reaps.
func TestLifecycleSchedules(t *testing.T) {
	const schedules = 200
	var n driverCounts
	for seed := int64(0); seed < schedules; seed++ {
		d := newLifeDriver(t, fmt.Sprintf("seed %d", seed))
		d.run(seededSchedule(seed))
		d.check()
		n.add(d.n)
	}
	t.Logf("%d schedules: %+v", schedules, n)
	if n.completed == 0 || n.dropped == 0 || n.refused == 0 || n.late == 0 || n.stale == 0 {
		t.Fatalf("schedules left a lifecycle path unexercised: %+v", n)
	}
}

// FuzzAcceptPacket runs fuzzed schedule bytes through the driver: no
// schedule may break the lifecycle invariants.
func FuzzAcceptPacket(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seededSchedule(seed))
	}
	f.Fuzz(func(t *testing.T, sched []byte) {
		if len(sched) > 1024 {
			sched = sched[:1024]
		}
		d := newLifeDriver(t, "fuzz")
		d.run(sched)
		d.check()
	})
}
