package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/cf"
	"repro/internal/channel"
	"repro/internal/fft"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/mat"
	"repro/internal/modulation"
)

// The layer walk: a single-threaded reference receiver (uplink) and
// transmitter (downlink) owned by the benchmark, which pushes every pool
// frame through the same public kernels the engine's workers call, in the
// same order, and records one span around each call. It exists so that a
// layer's cost is measured where the work happens without instrumenting
// the program: the engine's own accounting is per task, not per layer.

// span is one timed call into a layer. Times are nanoseconds since the
// walk started; parent indexes the enclosing span (-1 for a frame span).
type span struct {
	name       string
	start, end int64
	parent     int
	frame      int
}

// nominalNoise matches the engine's demodulator: normalized min-sum is
// scale invariant, so a fixed noise variance suffices.
const nominalNoise = 0.1

type walker struct {
	w      *spec
	cfg    *frame.Config
	t0     time.Time
	spans  []span
	frame  int // current frame's span index
	frames int

	plan     *fft.Plan
	tab      *modulation.Table
	code     *ldpc.Code
	dec      *ldpc.Decoder
	zfws     *mat.ZFWorkspace
	blockMul mat.BlockKernel
	fec      *fronthaul.FEC
	scUsed   int

	pilotConj [][]complex64
	freq      []complex64   // one antenna's spectrum
	grid      [][]complex64 // [symbol] Q×M subcarrier-major, as the engine lays it out
	csi, eq   []*mat.M      // per ZF group: M×K estimate, K×M equalizer
	pre       []*mat.M      // per ZF group: M×K precoder (downlink)
	xblk      []complex64   // K×Q equalized symbols, group after group
	llr       []float32     // Q×K×order, subcarrier-major SoA
	gather    []float32
	info      []byte
	codeword  [][]byte               // [user] downlink codewords
	modBlk    []complex64            // K×B modulated tile, user-major
	xtBlk     []complex64            // B×K transpose
	dl        map[[2]int][]complex64 // (symbol, antenna) -> transmitted samples

	fecSyn  [][]byte
	fecBuf  [][]byte
	present []bool

	iters, earlyExits, blockFails int // blocks decoded = the ldpc.decode span count
}

func newWalker(w *spec) (*walker, error) {
	cfg := &w.cfg
	m, k, q := cfg.Antennas, cfg.Users, cfg.DataSubcarriers
	order := int(cfg.Order)
	wk := &walker{
		w: w, cfg: cfg, t0: time.Now(),
		plan:     fft.MustPlan(cfg.OFDMSize),
		tab:      modulation.Get(cfg.Order),
		code:     cfg.Code(),
		zfws:     mat.NewZFWorkspace(k),
		blockMul: mat.PlanBlockMul(true, k),
		freq:     make([]complex64, cfg.OFDMSize),
		grid:     make([][]complex64, cfg.NumSymbols()),
		xblk:     make([]complex64, k*q),
		llr:      make([]float32, q*k*order),
		present:  make([]bool, m+w.fecParity),
	}
	wk.dec = ldpc.NewDecoder(wk.code)
	wk.dec.Alg = ldpc.NormalizedMinSum
	wk.scUsed = (wk.code.N() + order - 1) / order
	wk.gather = make([]float32, wk.scUsed*order)
	wk.info = make([]byte, wk.code.K())
	for s := range wk.grid {
		wk.grid[s] = make([]complex64, q*m)
	}
	for g := 0; g < cfg.ZFGroups(); g++ {
		wk.csi = append(wk.csi, mat.New(m, k))
		wk.eq = append(wk.eq, mat.New(k, m))
		wk.pre = append(wk.pre, mat.New(m, k))
	}
	for u := 0; u < k; u++ {
		p := channel.FrequencyOrthogonalPilot(q, k, u)
		cf.Conj(p)
		wk.pilotConj = append(wk.pilotConj, p)
		wk.codeword = append(wk.codeword, make([]byte, wk.code.N()))
	}
	wk.modBlk = make([]complex64, k*cfg.ZFGroupSize)
	wk.xtBlk = make([]complex64, cfg.ZFGroupSize*k)
	wk.dl = make(map[[2]int][]complex64)
	if w.fecParity > 0 {
		fec, err := fronthaul.NewFEC(m, w.fecParity)
		if err != nil {
			return nil, err
		}
		wk.fec = fec
		payload := cfg.SamplesPerSymbol() * cf.BytesPerIQ
		for i := 0; i < w.fecParity; i++ {
			wk.fecSyn = append(wk.fecSyn, make([]byte, payload))
			wk.fecBuf = append(wk.fecBuf, make([]byte, payload))
		}
	}
	return wk, nil
}

func (wk *walker) now() int64 { return time.Since(wk.t0).Nanoseconds() }

// open starts a span under the current frame and returns its index.
func (wk *walker) open(name string) int {
	wk.spans = append(wk.spans, span{name: name, start: wk.now(), parent: wk.frame, frame: wk.frames})
	return len(wk.spans) - 1
}

func (wk *walker) close(i int) { wk.spans[i].end = wk.now() }

func (wk *walker) groupBounds(g int) (int, int) {
	lo := g * wk.cfg.ZFGroupSize
	hi := lo + wk.cfg.ZFGroupSize
	if hi > wk.cfg.DataSubcarriers {
		hi = wk.cfg.DataSubcarriers
	}
	return lo, hi
}

// walkFrame runs one pool frame through the reference chain. received
// says which packets survive the link (nil: all of them); truthDL gives
// the downlink MAC bits. It returns an error on any output mismatch.
func (wk *walker) walkFrame(p *cellPool, pf *poolFrame, received []bool,
	truthDL func(sym, user int) []byte) error {
	cfg := wk.cfg
	wk.spans = append(wk.spans, span{name: "bench.walk_frame", start: wk.now(), parent: -1, frame: wk.frames})
	wk.frame = len(wk.spans) - 1
	defer func() {
		wk.spans[wk.frame].end = wk.now()
		wk.frames++
	}()

	// Ingest: one burst per pilot/uplink symbol, M data packets then P
	// parity packets, exactly as emitted.
	burst := cfg.Antennas + wk.w.fecParity
	for off := 0; off < len(pf.pkts); off += burst {
		var rcv []bool
		if received != nil {
			rcv = received[off : off+burst]
		}
		if err := wk.ingestBurst(pf.pkts[off:off+burst], rcv); err != nil {
			return err
		}
	}
	for g := range wk.csi {
		i := wk.open("mat.zf")
		var err error
		if cfg.NumDownlink() > 0 {
			err = mat.ZFPrecoderInto(wk.pre[g], wk.csi[g], wk.zfws)
		} else {
			err = mat.ZFEqualizerInto(wk.eq[g], wk.csi[g], wk.zfws)
		}
		wk.close(i)
		if err != nil {
			return fmt.Errorf("walk: singular channel estimate in group %d: %w", g, err)
		}
	}
	for s := 0; s < cfg.NumSymbols(); s++ {
		switch cfg.SymbolAt(s) {
		case frame.Uplink:
			if err := wk.receiveSymbol(pf, s); err != nil {
				return err
			}
		case frame.Downlink:
			wk.transmitSymbol(s, truthDL)
		}
	}
	if cfg.NumDownlink() > 0 {
		i := wk.open("bench.user_rx")
		err := wk.checkTransmit(p.gen.H, truthDL)
		wk.close(i)
		return err
	}
	return nil
}

// ingestBurst parses one symbol's packets, rebuilds what the link lost
// from the parity shards, and transforms every antenna.
func (wk *walker) ingestBurst(pkts [][]byte, received []bool) error {
	cfg := wk.cfg
	m := cfg.Antennas
	var h fronthaul.Header
	i := wk.open("fronthaul.parse")
	for a, pkt := range pkts {
		wk.present[a] = received == nil || received[a]
		if !wk.present[a] {
			continue
		}
		if err := h.Decode(pkt); err != nil {
			return fmt.Errorf("walk: %w", err)
		}
		if int(h.Antenna) != a {
			return fmt.Errorf("walk: packet %d of a burst carries antenna %d", a, h.Antenna)
		}
	}
	wk.close(i)
	sym := int(h.Symbol)
	if wk.fec != nil {
		i = wk.open("fronthaul.fec_accumulate")
		for _, row := range wk.fecSyn {
			clear(row)
		}
		var lost, rows []int
		for a, pkt := range pkts {
			pay := pkt[fronthaul.HeaderSize:]
			switch {
			case !wk.present[a] && a < m:
				lost = append(lost, a)
			case !wk.present[a]:
			case a < m:
				wk.fec.AccumulateData(wk.fecSyn, a, pay)
			default:
				wk.fec.AccumulateParity(wk.fecSyn, a-m, pay)
				rows = append(rows, a-m)
			}
		}
		wk.close(i)
		if len(lost) > 0 {
			if len(rows) < len(lost) {
				return fmt.Errorf("walk: symbol %d lost %d packets with %d parity", sym, len(lost), len(rows))
			}
			i = wk.open("fronthaul.fec_reconstruct")
			err := wk.fec.Reconstruct(wk.fecBuf[:len(lost)], lost, rows, wk.fecSyn)
			wk.close(i)
			if err != nil {
				return fmt.Errorf("walk: %w", err)
			}
			// The loss is simulated, so the pool still holds what was
			// lost: the rebuilt shard must equal it bit for bit, and the
			// transforms below may read either.
			for c, a := range lost {
				if !bytes.Equal(wk.fecBuf[c], pkts[a][fronthaul.HeaderSize:]) {
					return fmt.Errorf("walk: FEC rebuilt symbol %d antenna %d wrongly", sym, a)
				}
			}
		}
	} else if received != nil {
		for a := 0; a < m; a++ {
			if !wk.present[a] {
				return fmt.Errorf("walk: symbol %d antenna %d lost on a link without FEC", sym, a)
			}
		}
	}
	ds, q := cfg.DataStart(), cfg.DataSubcarriers
	for a := 0; a < m; a++ {
		i = wk.open("fft.forward")
		wk.plan.ForwardIQ12(wk.freq, pkts[a][fronthaul.HeaderSize:], cfg.CPLen)
		wk.close(i)
		band := wk.freq[ds : ds+q]
		if cfg.SymbolAt(sym) == frame.Pilot {
			i = wk.open("bench.csi")
			wk.extractCSI(a, band)
			wk.close(i)
			continue
		}
		dst := wk.grid[sym] // transposed store, inside the frame's glue time
		for sc, v := range band {
			dst[sc*m+a] = v
		}
	}
	return nil
}

// extractCSI is the engine's frequency-orthogonal estimate: user u's
// pilot sits on subcarriers sc%K == u; average its tones per ZF group.
func (wk *walker) extractCSI(ant int, band []complex64) {
	k := wk.cfg.Users
	for g := range wk.csi {
		lo, hi := wk.groupBounds(g)
		row := wk.csi[g].Row(ant)
		for u := 0; u < k; u++ {
			var acc complex64
			n := 0
			for sc := lo + ((u-lo)%k+k)%k; sc < hi; sc += k {
				acc += band[sc] * wk.pilotConj[u][sc]
				n++
			}
			if n > 0 {
				row[u] = acc * complex(1/float32(n), 0)
			}
		}
	}
}

// receiveSymbol equalizes, demodulates and decodes one uplink symbol and
// compares every block that passes parity with the transmitted bits.
func (wk *walker) receiveSymbol(pf *poolFrame, sym int) error {
	cfg := wk.cfg
	m, k, order := cfg.Antennas, cfg.Users, int(cfg.Order)
	i := wk.open("mat.equalize")
	for g := range wk.eq {
		lo, hi := wk.groupBounds(g)
		if hi > wk.scUsed {
			hi = wk.scUsed // padding subcarriers carry no code bits
		}
		if hi <= lo {
			break
		}
		yt := mat.M{Rows: hi - lo, Cols: m, Data: wk.grid[sym][lo*m : hi*m]}
		xb := mat.M{Rows: k, Cols: hi - lo, Data: wk.xblk[lo*k : hi*k]}
		wk.blockMul(&xb, wk.eq[g], &yt)
	}
	wk.close(i)
	i = wk.open("modulation.demod")
	for g := range wk.eq {
		lo, hi := wk.groupBounds(g)
		if hi > wk.scUsed {
			hi = wk.scUsed
		}
		if hi <= lo {
			break
		}
		wk.tab.DemodulateSoftSoA(wk.llr[lo*k*order:hi*k*order], wk.xblk[lo*k:hi*k], k, hi-lo, nominalNoise)
	}
	wk.close(i)
	for u := 0; u < k; u++ {
		o, stride := u*order, k*order
		for sc := 0; sc < wk.scUsed; sc++ {
			copy(wk.gather[sc*order:(sc+1)*order], wk.llr[o:o+order])
			o += stride
		}
		i = wk.open("ldpc.decode")
		res := wk.dec.Decode(wk.info, wk.gather[:wk.code.N()], cfg.DecodeIter)
		wk.close(i)
		wk.iters += res.Iterations
		if res.OK && res.Iterations < cfg.DecodeIter {
			wk.earlyExits++
		}
		if !res.OK {
			wk.blockFails++
			continue
		}
		if !bytes.Equal(wk.info, pf.truth[u][sym]) {
			return fmt.Errorf("walk: frame %d symbol %d user %d decoded OK to the wrong bits", wk.frames, sym, u)
		}
	}
	return nil
}

// transmitSymbol encodes, modulates, precodes and IFFTs one downlink
// symbol, leaving each antenna's time-domain samples in wk.dl.
func (wk *walker) transmitSymbol(sym int, truth func(sym, user int) []byte) {
	cfg := wk.cfg
	m, k, q, ds := cfg.Antennas, cfg.Users, cfg.DataSubcarriers, cfg.DataStart()
	for u := 0; u < k; u++ {
		i := wk.open("ldpc.encode")
		wk.code.Encode(wk.codeword[u], truth(sym, u))
		wk.close(i)
	}
	grid := wk.grid[sym]
	for g := range wk.pre {
		lo, hi := wk.groupBounds(g)
		nb := hi - lo
		i := wk.open("modulation.modulate")
		for u := 0; u < k; u++ {
			wk.tab.ModulateBlock(wk.modBlk[u*nb:(u+1)*nb], wk.codeword[u], lo)
		}
		wk.close(i)
		for u := 0; u < k; u++ {
			for j, v := range wk.modBlk[u*nb : (u+1)*nb] {
				wk.xtBlk[j*k+u] = v
			}
		}
		xt := mat.M{Rows: nb, Cols: k, Data: wk.xtBlk[:nb*k]}
		out := mat.M{Rows: nb, Cols: m, Data: grid[lo*m : hi*m]}
		i = wk.open("mat.precode")
		mat.MulBlockInto(&out, &xt, wk.pre[g])
		wk.close(i)
	}
	for a := 0; a < m; a++ {
		cf.Fill(wk.freq, 0)
		band := wk.freq[ds : ds+q]
		for sc := range band {
			band[sc] = grid[sc*m+a]
		}
		i := wk.open("fft.inverse")
		wk.plan.Inverse(wk.freq)
		wk.close(i)
		out := wk.dl[[2]int{sym, a}]
		if out == nil {
			out = make([]complex64, cfg.SamplesPerSymbol())
			wk.dl[[2]int{sym, a}] = out
		}
		copy(out, wk.freq[cfg.OFDMSize-cfg.CPLen:])
		copy(out[cfg.CPLen:], wk.freq)
		cf.Scale(out, 0.25) // the engine's downlink gain
	}
}

// checkTransmit quantizes the transmitted symbols to the 12-bit wire
// format, as the fronthaul would, and lets the users decode them.
func (wk *walker) checkTransmit(h *mat.M, truth func(sym, user int) []byte) error {
	iq := make([]int16, 2*wk.cfg.SamplesPerSymbol())
	packed := make([]byte, wk.cfg.SamplesPerSymbol()*cf.BytesPerIQ)
	for _, samples := range wk.dl {
		cf.Quantize12(iq, samples)
		cf.PackIQ12(packed, iq)
		cf.UnpackIQ12(samples, packed)
	}
	return checkDownlink(wk.cfg, h, wk.dl, truth)
}

// walkSummary folds the spans into per-layer time: a layer's busy time is
// the sum of its (leaf) spans; the frame span's self time — its duration
// minus every child — is the harness glue between the calls.
type walkSummary struct {
	frames   int
	count    map[string]int
	totalNS  map[string]int64 // per span name
	layerNS  map[string]int64 // per layer prefix, leaf spans only
	walkNS   int64            // Σ frame spans
	selfNS   int64            // Σ frame self time
	userRxNS int64            // verification-only work, excluded from walk time
}

func (wk *walker) summary() walkSummary {
	s := walkSummary{
		frames: wk.frames, count: map[string]int{},
		totalNS: map[string]int64{}, layerNS: map[string]int64{},
	}
	for _, sp := range wk.spans {
		d := sp.end - sp.start
		s.count[sp.name]++
		s.totalNS[sp.name] += d
		if sp.parent < 0 {
			s.walkNS += d
			s.selfNS += d
			continue
		}
		s.selfNS -= d
		layer, _, _ := strings.Cut(sp.name, ".")
		s.layerNS[layer] += d
		if sp.name == "bench.user_rx" {
			s.userRxNS += d
		}
	}
	return s
}

// perFrameMS and perCallUS are the two shapes every walk metric takes.
func (s *walkSummary) perFrameMS(ns int64) float64 { return ratio(float64(ns)/1e6, float64(s.frames)) }

func (s *walkSummary) perCallUS(name string) float64 {
	return ratio(float64(s.totalNS[name])/1e3, float64(s.count[name]))
}
