// Package workload synthesizes the traffic that exercises the baseband:
// it is the software analogue of the paper's high-performance IQ sample
// generator (§5.2) plus the ground truth needed to score Agora's output.
//
// For the uplink it runs the entire user-side transmit chain — random MAC
// bits, LDPC encoding, QAM modulation, subcarrier mapping, spatial mixing
// through a channel matrix, per-antenna IFFT, AWGN, and 12-bit
// quantization — producing exactly the time-domain packets a real RRU
// would emit. For the downlink it provides the matching user-side
// receiver so examples and tests can verify what users would decode.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cf"
	"repro/internal/channel"
	"repro/internal/fft"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/mat"
	"repro/internal/modulation"
)

// Generator produces fronthaul traffic for one cell configuration.
type Generator struct {
	Cfg   frame.Config
	Model channel.Model
	SNRdB float64

	// H is the channel matrix used for every generated frame (block
	// fading; redrawn by Redraw). Exposed for tests that need the truth.
	H *mat.M

	// TruthBits[u][s] holds the information bits user u transmitted in
	// data symbol s (uplink symbols only; indexed by symbol position).
	TruthBits [][][]byte

	rng      *rand.Rand
	gains    []float32 // per-antenna TX gain, recomputed per channel draw
	sel      *channel.Selective
	hBand    []*mat.M // per-data-subcarrier response when sel != nil
	code     *ldpc.Code
	tab      *modulation.Table
	plan     *fft.Plan
	userFreq [][]complex64 // per-user frequency-domain data symbol scratch
	xtFreq   []complex64   // Q×K transposed user band (blocked-mix input)
	mixFreq  []complex64   // M×Q mixed band, antenna-major: InverseBand's input
	antGrid  []complex64   // M×OFDMSize lanes, IFFT'd in one batched call
	antCP    []complex64   // one antenna's time symbol with the cyclic prefix prepended
	pkt      []byte
	zcRoot   int

	// Steady-state scratch: the per-frame emit path allocates nothing.
	// TruthBits rows are preallocated for uplink symbols and overwritten
	// in place each frame; cwBuf/padBuf hold one user's codeword and its
	// symbol-padded copy; pilotBand caches each user's transmitted pilot
	// over the data band.
	cwBuf     []byte
	padBuf    []byte
	pilotBand [][]complex64

	// doppler, when in (0,1), ages the channel by one Gauss-Markov step
	// at the start of every EmitFrame (see SetDoppler). Zero keeps the
	// default block-fading behaviour: H static across frames.
	doppler float64

	// txSeq is the monotone fronthaul sequence number stamped into every
	// emitted packet (starting at 1; 0 marks legacy unstamped packets), the
	// ground truth for the engine's Seq-gap loss accounting (DESIGN §15).
	txSeq uint64

	// fec, when non-nil, appends ParityShards Reed-Solomon parity packets
	// after each symbol's M-antenna data burst (see SetFECParity); fecAcc
	// holds the streaming parity accumulators, zeroed between symbols.
	fec    *fronthaul.FEC
	fecAcc [][]byte

	// cell is stamped into every emitted packet header so a fleet router
	// can demux this RRU's stream to its cell engine (see SetCell).
	cell uint8
}

// NewGenerator builds a generator. cfg must already be validated.
func NewGenerator(cfg frame.Config, model channel.Model, snrDB float64, seed int64) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		Cfg:    cfg,
		Model:  model,
		SNRdB:  snrDB,
		rng:    rand.New(rand.NewSource(seed)),
		code:   cfg.Code(),
		tab:    modulation.Get(cfg.Order),
		H:      mat.New(cfg.Antennas, cfg.Users),
		zcRoot: 1,
	}
	var err error
	g.plan, err = fft.NewPlan(cfg.OFDMSize)
	if err != nil {
		return nil, err
	}
	g.userFreq = make([][]complex64, cfg.Users)
	for u := range g.userFreq {
		g.userFreq[u] = make([]complex64, cfg.OFDMSize)
	}
	g.xtFreq = make([]complex64, cfg.DataSubcarriers*cfg.Users)
	g.mixFreq = make([]complex64, cfg.Antennas*cfg.DataSubcarriers)
	g.antGrid = make([]complex64, cfg.Antennas*cfg.OFDMSize)
	g.antCP = make([]complex64, cfg.SamplesPerSymbol())
	g.pkt = make([]byte, 0, fronthaul.PacketSize(cfg.SamplesPerSymbol()))
	g.TruthBits = make([][][]byte, cfg.Users)
	for u := range g.TruthBits {
		g.TruthBits[u] = make([][]byte, cfg.NumSymbols())
		for s := 0; s < cfg.NumSymbols(); s++ {
			if cfg.SymbolAt(s) == frame.Uplink {
				g.TruthBits[u][s] = make([]byte, g.code.K())
			}
		}
	}
	n := g.code.N()
	scUsed := (n + int(cfg.Order) - 1) / int(cfg.Order)
	g.cwBuf = make([]byte, n)
	g.padBuf = make([]byte, scUsed*int(cfg.Order)) // tail beyond N stays zero
	g.pilotBand = make([][]complex64, cfg.Users)
	for u := range g.pilotBand {
		g.pilotBand[u] = g.PilotFreq(u, u)
	}
	g.gains = make([]float32, cfg.Antennas)
	channel.Draw(g.H, model, g.rng)
	g.computeGains()
	return g, nil
}

// Redraw samples a fresh channel matrix (and fresh multipath taps when
// frequency-selective mode is active).
func (g *Generator) Redraw() {
	if g.sel != nil {
		g.SetSelective(g.sel.DelaySpread())
		return
	}
	channel.Draw(g.H, g.Model, g.rng)
	g.computeGains()
}

// SetSelective switches the generator to a frequency-selective multipath
// channel with the given number of taps (1 restores flat fading
// behaviour but keeps per-subcarrier evaluation). The per-subcarrier
// responses over the data band are precomputed.
func (g *Generator) SetSelective(taps int) {
	cfg := &g.Cfg
	g.sel = channel.NewSelective(cfg.Antennas, cfg.Users, taps, cfg.OFDMSize, g.rng)
	if g.hBand == nil {
		g.hBand = make([]*mat.M, cfg.DataSubcarriers)
		for sc := range g.hBand {
			g.hBand[sc] = mat.New(cfg.Antennas, cfg.Users)
		}
	}
	for sc := range g.hBand {
		g.sel.FrequencyInto(g.hBand[sc], cfg.DataStart()+sc)
	}
	// H keeps the band-center response so CompareUplink-style consumers
	// and gain computation have a representative matrix.
	g.H.CopyFrom(g.hBand[len(g.hBand)/2])
	g.computeGainsSelective()
}

// Selective returns the active multipath channel (nil in flat mode).
func (g *Generator) Selective() *channel.Selective { return g.sel }

// computeGainsSelective averages row power across the band.
func (g *Generator) computeGainsSelective() {
	cfg := &g.Cfg
	n := float64(cfg.OFDMSize)
	active := float64(cfg.DataSubcarriers)
	for a := 0; a < cfg.Antennas; a++ {
		var rowP float64
		for sc := range g.hBand {
			for _, v := range g.hBand[sc].Row(a) {
				rowP += float64(real(v))*float64(real(v)) + float64(imag(v))*float64(imag(v))
			}
		}
		rowP /= float64(len(g.hBand))
		if rowP < 1e-12 {
			g.gains[a] = 1
			continue
		}
		rms := math.Sqrt(rowP*active) / n
		gain := 0.25 / rms
		if gain > 512 {
			gain = 512
		}
		g.gains[a] = float32(gain)
	}
}

// Evolve ages the channel with Gauss-Markov correlation rho (mobility
// modeling for the stale-precoder experiments).
func (g *Generator) Evolve(rho float64) {
	channel.Evolve(g.H, rho, g.rng)
	g.computeGains()
}

// computeGains sets a fixed per-antenna transmit gain targeting an RMS of
// 0.25 at the 12-bit quantizer. The gain is constant across the frame so
// CSI coherence between pilots and data is preserved (it is equivalent to
// scaling the channel row, which channel estimation absorbs); without it,
// antennas with high channel row power clip and create an SNR-independent
// error floor.
func (g *Generator) computeGains() {
	cfg := &g.Cfg
	n := float64(cfg.OFDMSize)
	active := float64(cfg.DataSubcarriers)
	for a := 0; a < cfg.Antennas; a++ {
		var rowP float64
		for _, v := range g.H.Row(a) {
			rowP += float64(real(v))*float64(real(v)) + float64(imag(v))*float64(imag(v))
		}
		if rowP < 1e-12 {
			g.gains[a] = 1
			continue
		}
		rms := math.Sqrt(rowP*active) / n
		gain := 0.25 / rms
		if gain > 512 {
			gain = 512
		}
		g.gains[a] = float32(gain)
	}
}

// PilotFreq returns user u's frequency-domain pilot over the data band
// for pilot symbol index p (0-based among pilot symbols). With
// frequency-orthogonal pilots all users share p=0; with time-orthogonal
// pilots user u occupies pilot symbol p == u with a full-band Zadoff–Chu
// sequence.
func (g *Generator) PilotFreq(u, p int) []complex64 {
	q := g.Cfg.DataSubcarriers
	switch g.Cfg.Pilots {
	case frame.FreqOrthogonal:
		return channel.FrequencyOrthogonalPilot(q, g.Cfg.Users, u)
	case frame.TimeOrthogonal:
		if p != u {
			return make([]complex64, q) // silent on others' pilot symbols
		}
		return channel.ZadoffChu(q, g.zcRoot)
	default:
		panic("workload: unknown pilot scheme")
	}
}

// SetFECParity enables fronthaul Reed-Solomon FEC: after each pilot or
// uplink symbol's M-antenna burst the generator emits p parity packets
// carrying antenna indices M..M+p-1, from which the engine can
// reconstruct up to p lost data packets of that symbol (DESIGN §15).
// Parity is accumulated streaming — each data payload is folded into the
// accumulators as it is emitted — so the emit path stays allocation-free.
// p = 0 disables the layer. The engine must run with a matching
// Options.FECParity or it will reject the parity packets.
func (g *Generator) SetFECParity(p int) error {
	if p == 0 {
		g.fec, g.fecAcc = nil, nil
		return nil
	}
	f, err := fronthaul.NewFEC(g.Cfg.Antennas, p)
	if err != nil {
		return err
	}
	g.fec = f
	payload := g.Cfg.SamplesPerSymbol() * cf.BytesPerIQ
	g.fecAcc = make([][]byte, p)
	for i := range g.fecAcc {
		g.fecAcc[i] = make([]byte, payload)
	}
	return nil
}

// SetDoppler switches the generator to a time-varying channel: each
// EmitFrame call first ages H by one Gauss-Markov step with correlation
// rho in (0,1), modeling user mobility (higher rho = slower fading).
// Values outside (0,1) restore the default block-fading behaviour — a
// static, frame-coherent H — which is what lets the engine's ZF
// coherence cache hit.
func (g *Generator) SetDoppler(rho float64) { g.doppler = rho }

// SetCell stamps every subsequently emitted packet with a cell id, so a
// multi-cell fleet router (internal/fleet) can demux interleaved RRU
// streams to their cell engines. The default 0 matches single-cell
// deployments and legacy receivers, which ignore the field.
func (g *Generator) SetCell(cell uint8) { g.cell = cell }

// EmitFrame generates all packets of one uplink frame and hands each to
// emit (typically Transport.Send). Frame content is freshly randomized;
// ground-truth bits are recorded in TruthBits.
func (g *Generator) EmitFrame(frameID uint32, emit func(pkt []byte) error) error {
	cfg := &g.Cfg
	if g.doppler > 0 && g.doppler < 1 {
		g.Evolve(g.doppler)
	}
	pilotSeen := 0
	for s := 0; s < cfg.NumSymbols(); s++ {
		switch cfg.SymbolAt(s) {
		case frame.Pilot:
			if err := g.emitPilotSymbol(frameID, s, pilotSeen, emit); err != nil {
				return err
			}
			pilotSeen++
		case frame.Uplink:
			if err := g.emitUplinkSymbol(frameID, s, emit); err != nil {
				return err
			}
		case frame.Downlink, frame.Empty:
			// Nothing flows RRU->Agora during downlink/empty symbols.
		}
	}
	return nil
}

// emitPilotSymbol builds the received pilot at every antenna. The pilot
// bands come from the pilotBand cache: with time-orthogonal pilots only
// user pilotIdx transmits (the rest stay zero), matching PilotFreq.
func (g *Generator) emitPilotSymbol(frameID uint32, sym, pilotIdx int, emit func([]byte) error) error {
	cfg := &g.Cfg
	for u := 0; u < cfg.Users; u++ {
		cf.Fill(g.userFreq[u], 0)
		if cfg.Pilots == frame.TimeOrthogonal && u != pilotIdx {
			continue // silent on another user's pilot symbol
		}
		copy(g.userFreq[u][cfg.DataStart():], g.pilotBand[u])
	}
	return g.mixAndEmit(frameID, sym, emit)
}

// emitUplinkSymbol encodes fresh bits for every user, modulates, maps and
// mixes them through the channel.
func (g *Generator) emitUplinkSymbol(frameID uint32, sym int, emit func([]byte) error) error {
	cfg := &g.Cfg
	n := g.code.N()
	scUsed := (n + int(cfg.Order) - 1) / int(cfg.Order)
	for u := 0; u < cfg.Users; u++ {
		// Overwrite the preallocated truth row in place; callers read it
		// before the next EmitFrame (per-frame scoring), so reuse is safe
		// and the emit path allocates nothing.
		info := g.TruthBits[u][sym]
		for i := range info {
			info[i] = byte(g.rng.Intn(2))
		}
		g.code.Encode(g.cwBuf, info)
		// Pad coded bits to a whole number of constellation symbols: the
		// padBuf tail beyond N is zero from allocation and never written.
		copy(g.padBuf, g.cwBuf)
		cf.Fill(g.userFreq[u], 0)
		g.tab.Modulate(g.userFreq[u][cfg.DataStart():cfg.DataStart()+scUsed], g.padBuf)
	}
	return g.mixAndEmit(frameID, sym, emit)
}

// mixAndEmit applies the channel per subcarrier, IFFTs per antenna, adds
// noise, quantizes and emits one packet per antenna.
func (g *Generator) mixAndEmit(frameID uint32, sym int, emit func([]byte) error) error {
	cfg := &g.Cfg
	noiseVar := channel.NoiseVarForSNR(g.SNRdB)
	ds := cfg.DataStart()
	q := cfg.DataSubcarriers
	k := cfg.Users
	if g.sel == nil {
		// Flat fading: one blocked multiply computes every antenna's data
		// band at once — dst = H·Xᵀ with the user bands transposed to
		// subcarrier rows. This is the same BLAS-3 kernel the engine's
		// equalizer uses, replacing K full-grid AXPY passes per antenna.
		for u := 0; u < k; u++ {
			src := g.userFreq[u][ds : ds+q]
			for sc, v := range src {
				g.xtFreq[sc*k+u] = v
			}
		}
		xt := mat.M{Rows: q, Cols: k, Data: g.xtFreq}
		mix := mat.M{Rows: cfg.Antennas, Cols: q, Data: g.mixFreq}
		mat.MulBlockInto(&mix, g.H, &xt)
	} else {
		// Frequency-selective: apply the per-subcarrier response.
		for a := 0; a < cfg.Antennas; a++ {
			band := g.mixFreq[a*q : (a+1)*q]
			for sc := range band {
				hrow := g.hBand[sc].Row(a)
				var acc complex64
				for u := 0; u < k; u++ {
					acc += hrow[u] * g.userFreq[u][ds+sc]
				}
				band[sc] = acc
			}
		}
	}
	// One InverseBand call transforms every antenna's band into its lane
	// of antGrid: the butterflies run lane after lane while the twiddle
	// tables stay hot, and the band lands straight in butterfly order.
	nfft := cfg.OFDMSize
	g.plan.InverseBand(g.antGrid, cfg.Antennas, g.mixFreq, ds, q, 1, q)
	for a := 0; a < cfg.Antennas; a++ {
		antTime := g.antGrid[a*nfft : (a+1)*nfft]
		// Prepend the cyclic prefix: the last CPLen time samples repeat
		// in front, exactly what the engine strips before its FFT.
		cp := cfg.CPLen
		copy(g.antCP, antTime[nfft-cp:])
		copy(g.antCP[cp:], antTime)
		// Per-antenna gain, constant over the frame (see computeGains):
		// lifts the tiny post-IFFT samples into the 12-bit quantizer's
		// sweet spot without clipping high-power channel rows. The
		// occasional OFDM peak still clips, which is why the paper's
		// clients also run 6 dB below full scale.
		cf.Scale(g.antCP, g.gains[a])
		sigPower := cf.Energy(g.antCP) / float64(len(g.antCP))
		channel.AWGN(g.antCP, noiseVar*sigPower, g.rng)
		g.txSeq++
		h := fronthaul.Header{
			Frame:   frameID,
			Symbol:  uint16(sym),
			Antenna: uint16(a),
			Dir:     fronthaul.DirUplink,
			Cell:    g.cell,
			Seq:     g.txSeq,
		}
		pkt := fronthaul.BuildPacket(g.pkt, h, g.antCP)
		if g.fec != nil {
			g.fec.AccumulateData(g.fecAcc, a, pkt[fronthaul.HeaderSize:])
		}
		if err := emit(pkt); err != nil {
			return err
		}
	}
	if g.fec != nil {
		// Parity shards ride as extra "antennas" M..M+p-1 of the same
		// symbol; transports copy on Send, so g.pkt is safe to reuse.
		for p := 0; p < g.fec.ParityShards(); p++ {
			g.txSeq++
			h := fronthaul.Header{
				Frame:   frameID,
				Symbol:  uint16(sym),
				Antenna: uint16(cfg.Antennas + p),
				Dir:     fronthaul.DirUplink,
				Cell:    g.cell,
				Seq:     g.txSeq,
			}
			pkt := fronthaul.BuildPacketRaw(g.pkt[:cap(g.pkt)], h, g.fecAcc[p])
			if err := emit(pkt); err != nil {
				return err
			}
		}
		for _, acc := range g.fecAcc {
			clear(acc)
		}
	}
	return nil
}

// CompareUplink scores decoded bits against the ground truth for one
// frame, returning per-user bit and block error counts.
// decoded[u][s] may be nil for symbols that failed entirely.
func (g *Generator) CompareUplink(decoded [][][]byte) (bitErrs, bits, blockErrs, blocks int) {
	cfg := &g.Cfg
	for u := 0; u < cfg.Users; u++ {
		for s := 0; s < cfg.NumSymbols(); s++ {
			truth := g.TruthBits[u][s]
			if truth == nil {
				continue
			}
			blocks++
			got := decoded[u][s]
			if got == nil {
				blockErrs++
				bitErrs += len(truth)
				bits += len(truth)
				continue
			}
			be := 0
			for i := range truth {
				if truth[i] != got[i] {
					be++
				}
			}
			bits += len(truth)
			bitErrs += be
			if be > 0 {
				blockErrs++
			}
		}
	}
	return
}

// String describes the generator.
func (g *Generator) String() string {
	return fmt.Sprintf("workload: %s, model=%d, SNR=%.1f dB", g.Cfg.String(), g.Model, g.SNRdB)
}
