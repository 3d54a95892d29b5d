package sched

import (
	"math/rand"
	"testing"

	"repro/internal/frame"
	"repro/internal/ldpc"
	"repro/internal/modulation"
	"repro/internal/queue"
)

// unit is one task (a batched message carries several).
type unit struct {
	frame int
	t     queue.TaskType
	sym   int
	idx   int
}

// fuzzCell builds a valid cell from shape's bits: 1–16 antennas, 1–4
// users, a pilot followed by up to seven uplink, downlink or empty
// symbols, and every task-granularity knob free. ok is false when the
// combination does not validate.
func fuzzCell(shape uint64) (cfg frame.Config, ok bool) {
	pick := func(bits uint, vals ...int) int {
		v := vals[int(shape%uint64(len(vals)))]
		shape >>= bits
		return v
	}
	cfg = frame.Config{
		Antennas:        pick(3, 1, 2, 3, 4, 5, 8, 16),
		Users:           pick(2, 1, 2, 3, 4),
		OFDMSize:        256,
		DataSubcarriers: pick(2, 48, 100, 128, 200),
		Order:           modulation.Order(pick(1, int(modulation.QPSK), int(modulation.QAM16))),
		Rate:            []ldpc.Rate{ldpc.Rate23, ldpc.Rate89}[pick(1, 0, 1)],
		Pilots:          frame.FreqOrthogonal,
		ZFGroupSize:     pick(2, 4, 8, 16, 24),
		DemodBlockSize:  pick(2, 8, 16, 32, 64),
		FFTBatch:        pick(2, 1, 2, 3, 4),
		ZFBatch:         pick(2, 1, 2, 3, 5),
	}
	cfg.Users = min(cfg.Users, cfg.Antennas)
	syms := []byte{'P'}
	for n := pick(3, 1, 2, 3, 4, 5, 6, 7, 7); n > 0; n-- {
		syms = append(syms, "UDEU"[pick(2, 0, 1, 2, 3)])
	}
	cfg.Symbols = string(syms)
	return cfg, cfg.Validate() == nil
}

// FuzzFrameDAG drives two frames of a fuzz-chosen cell through the DAG
// with the packets delivered in a seed-chosen order (shuffled or in
// order per symbol, with duplicates) interleaved with completions of
// released tasks in a seed-chosen order, under fuzz-chosen coherence-cache
// and stale-precoder flags. It checks, against dependencies restated
// here from the paper's task graph, that every task is released exactly
// once and never before its dependencies complete, and that a frame's
// remaining count reaches 0 exactly when its last task completes.
func FuzzFrameDAG(f *testing.F) {
	f.Add(uint64(0), int64(1))               // PU, one antenna
	f.Add(uint64(0xa41555a3f2778), int64(2)) // PUUEEDDD 16x4, stale precoder on 2 symbols
	f.Add(uint64(0xbbb2d7718d67e), int64(3)) // PDUUDU 16x4, cache hit
	f.Add(uint64(0x9e4042dc53e29), int64(4)) // PUUD 8x2, cache hit, stale on 1 symbol
	f.Fuzz(func(t *testing.T, shape uint64, seed int64) {
		cfg, ok := fuzzCell(shape)
		if !ok {
			t.Skip("invalid cell")
		}
		flags := shape >> 48 // above the bits fuzzCell reads
		cached := flags&1 != 0
		staleSyms := int(flags>>1) % 3
		staleGap := flags&8 != 0 // admit frame 1 only once frame 0's ZF is done
		checkDAG(t, cfg, cached, staleSyms, staleGap, rand.New(rand.NewSource(seed)))
	})
}

func checkDAG(t *testing.T, cfg frame.Config, cached bool, staleSyms int, staleGap bool, rng *rand.Rand) {
	s, err := New(&cfg, Params{Workers: 1, StaleDLSymbols: staleSyms})
	if err != nil {
		t.Fatal(err)
	}
	m, k, groups, blocks := cfg.Antennas, cfg.Users, cfg.ZFGroups(), cfg.DemodBlocks()
	var dlRank []int
	want := map[queue.TaskType]int{queue.TaskZF: groups}
	for sym := 0; sym < cfg.NumSymbols(); sym++ {
		dlRank = append(dlRank, cfg.NumDownlink()-countFrom(cfg, sym, frame.Downlink))
		switch cfg.SymbolAt(sym) {
		case frame.Pilot:
			want[queue.TaskPilotFFT] += m
		case frame.Uplink:
			want[queue.TaskFFT] += m
			want[queue.TaskDemod] += blocks
			want[queue.TaskDecode] += k
		case frame.Downlink:
			want[queue.TaskEncode] += k
			want[queue.TaskPrecode] += groups
			want[queue.TaskIFFT] += m
			want[queue.TaskPacketTX] += m
		}
	}
	total := 0
	for _, n := range want {
		total += n
	}

	const nFrames = 2
	frames := [nFrames]Frame{s.NewFrame(), s.NewFrame()}
	admitted := [nFrames]bool{}
	zfDoneSeen := [nFrames]bool{}
	stale := false // frame 1 may use frame 0's precoder
	arrived := map[unit]bool{}
	released := map[unit]bool{}
	completed := map[unit]bool{}
	doneOf := [nFrames]map[queue.TaskType]int{{}, {}}
	var pool []queue.Msg // released, not yet completed

	allDone := func(fr int, tt queue.TaskType, sym int, n int) bool {
		for i := 0; i < n; i++ {
			if !completed[unit{fr, tt, sym, i}] {
				return false
			}
		}
		return true
	}
	pilotsDone := func(fr int) bool {
		for sym := 0; sym < cfg.NumSymbols(); sym++ {
			if cfg.SymbolAt(sym) == frame.Pilot && !allDone(fr, queue.TaskPilotFFT, sym, m) {
				return false
			}
		}
		return true
	}
	zfDone := func(fr int) bool { return allDone(fr, queue.TaskZF, 0, groups) }
	// take drains the FIFO, checking each released task's dependencies.
	take := func() {
		for {
			msg, ok := s.Next()
			if !ok {
				return
			}
			fr := int(msg.Frame)
			if msg.Batch < 1 {
				t.Fatalf("%v released with batch %d", msg.Type, msg.Batch)
			}
			for i := 0; i < int(msg.Batch); i++ {
				u := unit{fr, msg.Type, int(msg.Symbol), int(msg.TaskIdx) + i}
				if released[u] {
					t.Fatalf("%+v released twice", u)
				}
				released[u] = true
				dep := true
				switch u.t {
				case queue.TaskPilotFFT, queue.TaskFFT:
					dep = arrived[unit{fr, 0, u.sym, u.idx}]
				case queue.TaskZF:
					dep = pilotsDone(fr) && (msg.Aux == 1) == cached
				case queue.TaskDemod:
					dep = zfDone(fr) && allDone(fr, queue.TaskFFT, u.sym, m)
				case queue.TaskDecode:
					dep = allDone(fr, queue.TaskDemod, u.sym, blocks)
				case queue.TaskPrecode:
					dep = allDone(fr, queue.TaskEncode, u.sym, k)
					if msg.Aux == 0 {
						dep = dep && zfDone(fr)
					} else {
						dep = dep && fr == 1 && stale && dlRank[u.sym] < staleSyms &&
							msg.Aux == uint64(frames[0].Slot)+1
					}
				case queue.TaskIFFT:
					dep = allDone(fr, queue.TaskPrecode, u.sym, groups)
				case queue.TaskPacketTX:
					dep = completed[unit{fr, queue.TaskIFFT, u.sym, u.idx}]
				}
				if !dep {
					t.Fatalf("%+v (aux %d) released before its dependencies", u, msg.Aux)
				}
			}
			pool = append(pool, msg)
		}
	}
	admit := func(fr int) {
		if fr == 1 {
			stale = staleSyms > 0 && zfDoneSeen[0]
		}
		s.Admit(&frames[fr], uint32(fr), fr)
		admitted[fr] = true
		take()
	}

	// Packet arrivals: per frame and symbol, shuffled or in order, with
	// about one in four repeated later as a duplicate.
	type pkt struct{ fr, sym, ant int }
	var pkts []pkt
	for fr := 0; fr < nFrames; fr++ {
		for sym := 0; sym < cfg.NumSymbols(); sym++ {
			if st := cfg.SymbolAt(sym); st != frame.Pilot && st != frame.Uplink {
				continue
			}
			ants := rng.Perm(m)
			if rng.Intn(2) == 0 {
				for a := range ants {
					ants[a] = a
				}
			}
			for _, a := range ants {
				pkts = append(pkts, pkt{fr, sym, a})
				if rng.Intn(4) == 0 {
					pkts = append(pkts, pkt{fr, sym, a})
				}
			}
		}
	}
	if rng.Intn(2) == 0 {
		rng.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
	}
	// deliverable finds the next packet of an admitted frame.
	deliverable := func() int {
		for i, p := range pkts {
			if admitted[p.fr] {
				return i
			}
		}
		return -1
	}

	admit(0)
	if !staleGap {
		admit(1)
	}
	for len(pkts) > 0 || len(pool) > 0 {
		if i := deliverable(); i >= 0 && (len(pool) == 0 || rng.Intn(3) == 0) {
			p := pkts[i]
			pkts = append(pkts[:i], pkts[i+1:]...)
			u := unit{p.fr, 0, p.sym, p.ant}
			dup := arrived[u]
			arrived[u] = true
			if got := s.Arrive(&frames[p.fr], p.sym, p.ant); got == dup {
				t.Fatalf("frame %d packet (%d,%d): Arrive=%v on duplicate=%v", p.fr, p.sym, p.ant, got, dup)
			}
			before := len(pool)
			take()
			if dup && len(pool) != before {
				t.Fatal("a duplicate packet released work")
			}
			continue
		}
		if len(pool) == 0 {
			t.Fatalf("stuck: %d packets of unadmitted frames, no task released", len(pkts))
		}
		i := rng.Intn(len(pool))
		msg := pool[i]
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		fr := int(msg.Frame)
		for j := 0; j < int(msg.Batch); j++ {
			completed[unit{fr, msg.Type, int(msg.Symbol), int(msg.TaskIdx) + j}] = true
		}
		doneOf[fr][msg.Type] += int(msg.Batch)
		ev := s.Complete(&frames[fr], msg)
		left := total
		for _, n := range doneOf[fr] {
			left -= n
		}
		if frames[fr].Remaining != left {
			t.Fatalf("frame %d: Remaining %d, %d tasks left", fr, frames[fr].Remaining, left)
		}
		if (ev&FrameDone != 0) != (left == 0) {
			t.Fatalf("frame %d: FrameDone=%v with %d tasks left", fr, ev&FrameDone != 0, left)
		}
		if ev&PilotsDone != 0 {
			s.ReleaseZF(&frames[fr], cached)
		}
		if ev&ZFDone != 0 {
			zfDoneSeen[fr] = true
			if fr == 0 && staleGap {
				admit(1)
			}
		}
		take()
	}
	for tt, n := range want {
		got := 0
		for u := range released {
			if u.t == tt {
				got++
			}
		}
		if got != nFrames*n {
			t.Fatalf("%v: %d tasks released over %d frames, want %d", tt, got, nFrames, nFrames*n)
		}
	}
	for fr := range frames {
		if frames[fr].Remaining != 0 {
			t.Fatalf("frame %d ended with %d tasks remaining", fr, frames[fr].Remaining)
		}
	}
}

// countFrom counts symbols of type st at or after sym.
func countFrom(cfg frame.Config, sym int, st frame.SymbolType) int {
	n := 0
	for ; sym < cfg.NumSymbols(); sym++ {
		if cfg.SymbolAt(sym) == st {
			n++
		}
	}
	return n
}
