package core

import (
	"repro/internal/cf"
	"repro/internal/channel"
	"repro/internal/fft"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/mat"
	"repro/internal/modulation"
	"repro/internal/queue"
)

// worker holds one worker's private scratch so task execution allocates
// nothing. Workers are created by the engine; each runs runWorker.
// Private means per cache line, not just per object: the engine
// allocates its workers back to back, so scratch a hot kernel writes must
// not share a 64-byte line with another worker's allocations. The LDPC
// decoder's slabs are isolated that way inside ldpc.NewDecoder (DESIGN
// §13, Scratch ownership); padding this struct, payloadRun and leaseRun
// measured no change.
type worker struct {
	id    int
	eng   *Engine
	park  *parker
	order []queue.TaskType // the task queues it polls, in priority order

	plan    *fft.Plan
	lanes   []complex64 // FFTBatch×OFDMSize: one lane per antenna of an FFT or IFFT run
	stage   []complex64 // staging copy, DisableDirectStore only
	tileAnt []complex64 // M×8 tile copied from the antenna-major grid, DisableMemOpt only

	// Blocked-kernel scratch: the BLAS-3 path multiplies whole
	// multi-subcarrier tiles instead of one matvec per subcarrier. The
	// mat.M headers are worker fields so wrapping a buffer region is a
	// field assignment, not an allocation.
	tileMul     mat.TileKernel  // equalization plan
	blockMulPre mat.BlockKernel // B-row plan for precoding
	xblk        []complex64     // K×strip equalized strip, user-major
	xtBlk       []complex64     // precode: strip×K modulated tile, subcarrier-major (kernel w operand)
	xbM         mat.M           // demod: output strip
	xtM, outM   mat.M           // precode: symbol tile, downlink grid wrap

	// The fused equalize+demod kernel writes llrSC directly; the decoder
	// gathers one user's strided lane into llrGather so the LDPC kernel
	// keeps its contiguous input.
	llrGather []float32
	// payloadRun collects an antenna run's RX payloads (one lane per
	// payload); leaseRun tracks the leases claimed for the run so they
	// release after the transform consumes them.
	payloadRun [][]byte
	leaseRun   []*rxLease

	dec  *ldpc.Decoder
	zfws *mat.ZFWorkspace
	tab  *modulation.Table
	code *ldpc.Code

	// pilotComb is the conjugated pilot comb over the data band: on
	// subcarrier sc, the pilot of user sc mod K (FreqOrthogonal) or the
	// one full-band sequence every user sends (TimeOrthogonal).
	// combAcc holds the running sums of every ZF group, group-major: one
	// per comb phase (FreqOrthogonal) or one (TimeOrthogonal) per group,
	// padded to whole 64-byte lines so no other allocation shares a line
	// it is written in. combTerms says where each sum goes.
	pilotComb []complex64
	combAcc   []complex64
	combTerms []combTerm
}

// combTerm places one running sum of a ZF group's comb correlation: user
// u's entry of the antenna's CSI row gets the sum times scale, 1/(its
// term count). A sum with no terms, in a group narrower than K, has u =
// -1 and leaves the entry as it was. Under TimeOrthogonal u is unused:
// the pilot symbol names the user.
type combTerm struct {
	u     int
	scale complex64
}

func newWorker(id int, e *Engine) *worker {
	cfg := &e.cfg
	w := &worker{
		id:    id,
		eng:   e,
		order: e.dag.Polls()[id],
		plan:  e.plan,
		lanes: make([]complex64, cfg.FFTBatch*cfg.OFDMSize),
		zfws:  mat.NewZFWorkspace(cfg.Users),
		tab:   modulation.Get(cfg.Order),
		code:  e.code,
	}
	// Decentralized Gram formation (DESIGN §16): the workspace carries the
	// cluster count so both the equalizer and the precoder (which runs the
	// equalizer internally) partition antennas identically.
	w.zfws.Clusters = e.opts.ZFClusters
	// Blocked-kernel plans and tile scratch: a demod strip spans at most
	// one grid tile (mat.TileCols subcarriers), a precode strip one ZF
	// group.
	w.tileMul = mat.PlanTileMul(!e.opts.DisableJITGemm)
	w.blockMulPre = mat.PlanBlockMul(!e.opts.DisableJITGemm, cfg.ZFGroupSize)
	w.xblk = make([]complex64, cfg.Users*mat.TileCols)
	w.xtBlk = make([]complex64, cfg.ZFGroupSize*cfg.Users)
	w.dec = ldpc.NewDecoder(e.code)
	w.dec.Alg = ldpc.NormalizedMinSum
	w.payloadRun = make([][]byte, 0, cfg.FFTBatch)
	w.leaseRun = make([]*rxLease, 0, cfg.FFTBatch)
	w.llrGather = make([]float32, e.scUsed*int(cfg.Order))
	if e.opts.DisableDirectStore {
		w.stage = make([]complex64, cfg.DataSubcarriers)
	}
	if e.opts.DisableMemOpt {
		w.tileAnt = make([]complex64, cfg.Antennas*mat.TileCols)
	}
	// Precompute the conjugated pilot comb for CSI extraction.
	phases := 1
	if cfg.Pilots == frame.FreqOrthogonal {
		phases = cfg.Users
		w.pilotComb = make([]complex64, cfg.DataSubcarriers)
		for u := 0; u < cfg.Users; u++ {
			p := channel.FrequencyOrthogonalPilot(cfg.DataSubcarriers, cfg.Users, u)
			for sc := u; sc < len(p); sc += cfg.Users {
				w.pilotComb[sc] = p[sc]
			}
		}
	} else {
		w.pilotComb = channel.ZadoffChu(cfg.DataSubcarriers, 1)
	}
	cf.Conj(w.pilotComb)
	sums := cfg.ZFGroups() * phases
	w.combAcc = make([]complex64, (sums+7)&^7)[:sums]
	for g := 0; g < cfg.ZFGroups(); g++ {
		lo, hi := e.buf.groupBounds(g)
		for j := 0; j < phases; j++ {
			t := combTerm{u: -1}
			if n := (hi - lo - j + phases - 1) / phases; n > 0 {
				t = combTerm{u: (lo + j) % phases, scale: complex(1/float32(n), 0)}
			}
			w.combTerms = append(w.combTerms, t)
		}
	}
	return w
}

// runPilotFFT is the fused FFT + channel-estimation block (Table 2) over
// a run of count consecutive antennas of one pilot symbol: one fftRun
// front-end call, then CSI extraction walks the lanes with the conjugated
// pilot comb still cache-resident. Antenna a writes row a of every ZF
// group's CSI matrix — disjoint from all other tasks.
func (w *worker) runPilotFFT(slot int, sym uint16, ant0, count, pilotIdx int) {
	cfg := &w.eng.cfg
	nfft := cfg.OFDMSize
	buf, ok := w.fftRun(slot, sym, ant0, count)
	if !ok {
		return
	}
	ds := cfg.DataStart()
	for l := 0; l < count; l++ {
		band := buf[l*nfft+ds : l*nfft+ds+cfg.DataSubcarriers]
		w.extractCSI(slot, ant0+l, pilotIdx, band)
	}
}

// fftRun is the RX front end shared by the pilot and data FFT blocks: it
// claims the payloads of antennas ant0..ant0+count-1 of one symbol,
// transforms them into the worker's lane buffer (lane l = antenna ant0+l,
// OFDMSize apart) and releases the leases. The fused path is one
// ForwardIQ12Batch call — CP strip, 12-bit unpack and the input
// permutation in one pass per lane, the butterfly passes back to back
// while the twiddles are hot. ok is false when the frame was torn down
// mid-run (a lease was already reclaimed): the remaining leases are, or
// will be, reclaimed by the manager sweep, the ones claimed here are
// dropped, and the run is skipped.
func (w *worker) fftRun(slot int, sym uint16, ant0, count int) (buf []complex64, ok bool) {
	e := w.eng
	nfft := e.cfg.OFDMSize
	pay := w.payloadRun[:0]
	leases := w.leaseRun[:0]
	for i := 0; i < count; i++ {
		p, l := e.rxPayload(slot, sym, uint16(ant0+i))
		if p == nil {
			for _, ll := range leases {
				e.releaseRx(ll)
			}
			return nil, false
		}
		pay = append(pay, p)
		leases = append(leases, l)
	}
	buf = w.lanes[:count*nfft]
	w.plan.ForwardIQ12Batch(buf, pay, e.cfg.CPLen, nfft)
	for _, l := range leases {
		e.releaseRx(l)
	}
	return buf, true
}

// extractCSI correlates one antenna's pilot data band against the
// conjugated pilot comb and writes row ant of every ZF group's CSI
// matrix: one fft.CorrelateComb call, one comb correlation per group,
// then each user's sum scaled by 1/(its term count) as combTerms places
// it. FreqOrthogonal: user u's tones are the subcarriers sc ≡ u (mod K),
// so sum j of a group starting at lo is user (lo+j) mod K's, its one
// measurement per K subcarriers averaged (one per group when K ==
// ZFGroupSize, the paper's configuration). TimeOrthogonal: pilot symbol
// pilotIdx belongs to user pilotIdx, one full-band sum per group.
func (w *worker) extractCSI(slot, ant, pilotIdx int, band []complex64) {
	cfg := &w.eng.cfg
	csi := w.eng.buf.csi[slot]
	acc := w.combAcc
	k := len(acc) / len(csi)
	clear(acc)
	fft.CorrelateComb(acc, band, w.pilotComb, k, cfg.ZFGroupSize)
	if cfg.Pilots == frame.TimeOrthogonal {
		for g, h := range csi {
			h.Row(ant)[pilotIdx] = acc[g] * w.combTerms[g].scale
		}
		return
	}
	for g, h := range csi {
		row := h.Row(ant)
		sums := acc[g*k : g*k+k]
		for j, t := range w.combTerms[g*k : g*k+k] {
			if t.u >= 0 {
				row[t.u] = sums[j] * t.scale
			}
		}
	}
}

// runZF computes the zero-forcing equalizer (and downlink precoder when
// the schedule has downlink symbols) for one subcarrier group.
func (w *worker) runZF(slot int, g int) {
	e := w.eng
	b := e.buf
	h := b.csi[slot][g]
	if e.opts.DisableInverseOpt {
		mat.PinvSVDInto(b.eq[slot][g], h, 1e-9)
	} else if err := mat.ZFEqualizerInto(b.eq[slot][g], h, w.zfws); err != nil {
		// Singular channel estimate: fall back to conjugate beamforming
		// (§4.2 suggests MRC when ill-conditioned).
		mat.ConjugateEqualizerIntoWS(b.eq[slot][g], h, w.zfws)
	}
	if e.hasDownlink {
		if err := mat.ZFPrecoderInto(b.pre[slot][g], h, w.zfws); err != nil {
			b.pre[slot][g].Zero()
		}
	}
}

// copyCachedZF installs the coherence-cached equalizer (and precoder)
// for one subcarrier group into the frame's slot buffers (DESIGN §14): a
// plain copy replaces the Gram/Cholesky recompute while the
// pilot-estimated channel stays within the coherence window. The cache
// matrices are stable for the duration of the task: the manager defers
// refresh until no copy task is in flight.
func (w *worker) copyCachedZF(slot, g int) {
	e := w.eng
	b := e.buf
	c := &e.zfc
	copy(b.eq[slot][g].Data, c.eq[g].Data)
	if e.hasDownlink && c.pre != nil {
		copy(b.pre[slot][g].Data, c.pre[g].Data)
	}
}

// runFFT covers a run of count consecutive antennas of one uplink data
// symbol: one fftRun front-end call, then storeRun.
func (w *worker) runFFT(slot int, sym uint16, ant0, count int) {
	buf, ok := w.fftRun(slot, sym, ant0, count)
	if !ok {
		return
	}
	w.storeRun(slot, sym, ant0, buf)
}

// storeRun writes the data band of each lane of an FFT run (lane l is
// antenna ant0+l, OFDMSize apart in buf) into the frame's grid: whole
// 64-byte tile lines of the tiled grid (storeTiles), or one contiguous
// run per antenna of the antenna-major grid under DisableMemOpt. Under
// DisableDirectStore each band is first copied into worker-private
// staging, then stored from there.
func (w *worker) storeRun(slot int, sym uint16, ant0 int, buf []complex64) {
	e := w.eng
	cfg := &e.cfg
	nfft, ds, q := cfg.OFDMSize, cfg.DataStart(), cfg.DataSubcarriers
	for l := 0; l < len(buf)/nfft; l++ {
		band := buf[l*nfft+ds : l*nfft+ds+q]
		if e.opts.DisableDirectStore {
			copy(w.stage, band)
			band = w.stage
		}
		a := ant0 + l
		if e.opts.DisableMemOpt {
			copy(e.buf.dataFreqAnt[slot][sym][a*q:(a+1)*q], band)
		} else {
			storeTiles(e.buf.dataFreqTile[slot][sym], cfg.Antennas, a, band)
		}
	}
}

// storeTiles writes antenna a's data band into a tiled grid of m
// antennas: each mat.TileCols-subcarrier piece is the antenna's whole
// 64-byte line of one tile, a line no other antenna's store writes. The
// line goes as four 16-byte moves, the widest array assignment the
// compiler inlines when dst and src may overlap; one 64-byte assignment
// is a memmove call per line and runs at half the speed. A band that
// does not fill its last tile leaves that line's tail as it was; no strip
// reads it.
func storeTiles(grid []complex64, m, a int, band []complex64) {
	const tc = mat.TileCols
	o := a * tc
	for ; len(band) >= tc; band = band[tc:] {
		d := grid[o : o+tc : o+tc]
		*(*[2]complex64)(d) = *(*[2]complex64)(band)
		*(*[2]complex64)(d[2:]) = *(*[2]complex64)(band[2:])
		*(*[2]complex64)(d[4:]) = *(*[2]complex64)(band[4:])
		*(*[2]complex64)(d[6:]) = *(*[2]complex64)(band[6:])
		o += m * tc
	}
	if len(band) > 0 {
		copy(grid[o:], band)
	}
}

// nominalNoise is the noise variance handed to soft demodulation; the
// normalized min-sum decoder is scale invariant so a fixed value suffices.
const nominalNoise = 0.1

// runDemod is the fused equalization + soft demodulation block: one task
// covers DemodBlockSize consecutive subcarriers of one uplink symbol and
// writes every user's LLRs for those subcarriers through
// equalizeDemodBlock.
func (w *worker) runDemod(slot int, sym uint16, block int) {
	e := w.eng
	cfg := &e.cfg
	lo := block * cfg.DemodBlockSize
	hi := lo + cfg.DemodBlockSize
	if hi > cfg.DataSubcarriers {
		hi = cfg.DataSubcarriers
	}
	if hi > e.scUsed {
		hi = e.scUsed // padding region carries no code bits
	}
	if hi <= lo {
		return
	}
	w.equalizeDemodBlock(slot, sym, lo, hi)
}

// equalizeDemodBlock is the blocked (BLAS-3) demod path, and the only
// one: it never materializes the full K×B equalized tile. [lo, hi) is cut
// into strips at ZF-group and grid-tile boundaries, so a strip is at most
// mat.TileCols subcarriers of one tile under one equalizer. Each strip is
// one tile-plan multiply, dst = W·Y with Y the M×ns strip read in place
// from the tiled grid, into a small K×strip scratch, immediately consumed
// by one DemodulateSoftSoA call that writes all K users' LLRs for those
// subcarriers as a single contiguous llrSC span. The equalized symbols
// are demodulated while still cache-hot and are never written back to
// shared memory; every column's arithmetic is MulBlockInto's (mat's
// tile.go), so the LLRs do not depend on the strip cut.
//
// The ablations swap one step each. Under DisableMemOpt the strip is
// first copied, one contiguous run of samples per antenna, from the
// antenna-major grid into an M×8 worker tile — the strided reads are all
// the layout costs.
func (w *worker) equalizeDemodBlock(slot int, sym uint16, lo, hi int) {
	const tc = mat.TileCols
	e := w.eng
	cfg := &e.cfg
	b := e.buf
	m := cfg.Antennas
	k := cfg.Users
	order := int(cfg.Order)
	dst := b.llrSC[slot][sym]
	for j0 := lo; j0 < hi; {
		g := j0 / cfg.ZFGroupSize
		j1 := min((g+1)*cfg.ZFGroupSize, (j0/tc+1)*tc, hi)
		ns := j1 - j0
		var y []complex64
		if e.opts.DisableMemOpt {
			y = w.tileAnt
			grid, q := b.dataFreqAnt[slot][sym], cfg.DataSubcarriers
			for a := 0; a < m; a++ {
				copy(y[a*tc:a*tc+ns], grid[a*q+j0:a*q+j1])
			}
		} else {
			t := j0 / tc * m * tc
			y = b.dataFreqTile[slot][sym][t+j0%tc : t+m*tc]
		}
		w.xbM = mat.M{Rows: k, Cols: ns, Data: w.xblk[:k*ns]}
		w.tileMul(&w.xbM, b.eq[slot][g], y)
		w.tab.DemodulateSoftSoA(dst[j0*k*order:j1*k*order], w.xblk[:k*ns], k, ns, nominalNoise)
		j0 = j1
	}
}

// userLLR returns one user's contiguous LLR view for a symbol: the user's
// lane of llrSC gathered (stride K*order) into the worker's llrGather
// scratch — one strided read of data the demodulator wrote exactly once.
func (w *worker) userLLR(slot int, sym uint16, user int) []float32 {
	e := w.eng
	order := int(e.cfg.Order)
	gatherLLR(w.llrGather, e.buf.llrSC[slot][sym][user*order:], order, e.cfg.Users*order, e.scUsed)
	return w.llrGather
}

// gatherLLR copies n runs of order floats, stride apart in src, to dst
// back to back. The run is 8 to 32 bytes, so each order gets a loop of
// fixed-width moves — 16 bytes at most each, the widest array assignment
// the compiler inlines when dst and src may overlap — where a copy call
// per run costs more than the move.
func gatherLLR(dst, src []float32, order, stride, n int) {
	switch order {
	case 2:
		for i := 0; i < n; i++ {
			o, p := 2*i, i*stride
			d, s := dst[o:o+2:o+2], src[p:p+2:p+2]
			*(*[2]float32)(d) = *(*[2]float32)(s)
		}
	case 4:
		for i := 0; i < n; i++ {
			o, p := 4*i, i*stride
			d, s := dst[o:o+4:o+4], src[p:p+4:p+4]
			*(*[4]float32)(d) = *(*[4]float32)(s)
		}
	case 6:
		for i := 0; i < n; i++ {
			o, p := 6*i, i*stride
			d, s := dst[o:o+6:o+6], src[p:p+6:p+6]
			*(*[4]float32)(d) = *(*[4]float32)(s)
			*(*[2]float32)(d[4:]) = *(*[2]float32)(s[4:])
		}
	case 8:
		for i := 0; i < n; i++ {
			o, p := 8*i, i*stride
			d, s := dst[o:o+8:o+8], src[p:p+8:p+8]
			*(*[4]float32)(d) = *(*[4]float32)(s)
			*(*[4]float32)(d[4:]) = *(*[4]float32)(s[4:])
		}
	default:
		panic("core: gatherLLR: unsupported modulation order")
	}
}

// runDecode decodes one user's code block for one uplink symbol.
func (w *worker) runDecode(slot int, sym uint16, user int) {
	e := w.eng
	b := e.buf
	llr := w.userLLR(slot, sym, user)
	res := w.dec.Decode(b.decoded[slot][sym][user],
		llr[:e.code.N()], e.cfg.DecodeIter)
	b.decodeOK[slot][sym][user] = res.OK
	e.met.ObserveDecode(res.Iterations, res.OK && res.Iterations < e.cfg.DecodeIter)
}

// runEncode encodes one user's downlink code block.
func (w *worker) runEncode(slot int, sym uint16, user int) {
	b := w.eng.buf
	w.code.Encode(b.encoded[slot][sym][user], b.macBits[slot][sym][user])
}

// runPrecode is the fused modulation + precoding block: one task covers
// DemodBlockSize consecutive subcarriers of one downlink symbol, the
// blocks demod cuts, but over every data subcarrier: the padding past the
// codeword goes on air as the zero-bit point times the precoder. preSlot
// selects which frame's precoder to apply: normally the frame's own slot,
// but with the §3.4.2 stale-precoder optimization it is the previous
// frame's slot.
//
// The block is cut into strips at ZF-group edges, as equalizeDemodBlock
// cuts its own. Each user's symbols of a strip are modulated straight
// into its column of the strip×K tile (row j holds every user's symbol on
// subcarrier j0+j), and one planned multiply against the group's M×K
// precoder writes the strip's rows of the subcarrier-major downlink grid
// in place.
func (w *worker) runPrecode(slot int, sym uint16, block, preSlot int) {
	e := w.eng
	cfg := &e.cfg
	b := e.buf
	m := cfg.Antennas
	k := cfg.Users
	n := e.code.N()
	lo := block * cfg.DemodBlockSize
	hi := min(lo+cfg.DemodBlockSize, cfg.DataSubcarriers)
	for j0 := lo; j0 < hi; {
		g := j0 / cfg.ZFGroupSize
		j1 := min((g+1)*cfg.ZFGroupSize, hi)
		ns := j1 - j0
		for u := 0; u < k; u++ {
			w.tab.ModulateStrided(w.xtBlk[u:], k, ns, b.encoded[slot][sym][u][:n], j0)
		}
		w.xtM = mat.M{Rows: ns, Cols: k, Data: w.xtBlk[:ns*k]}
		w.outM = mat.M{Rows: ns, Cols: m, Data: b.dlFreq[slot][sym][j0*m : j1*m]}
		// dlFreq[sc][a] = Σ_u Xt[sc][u] · pre[a][u]: exactly dst = w·ytᵀ.
		w.blockMulPre(&w.outM, &w.xtM, b.pre[preSlot][g])
		j0 = j1
	}
}

// runIFFT transforms a run of count consecutive antennas of one downlink
// symbol with a single fft.InverseBand call into the worker's lane
// buffer: it reads each subcarrier-major source row once (the antennas
// are adjacent within a row), stores every precoded subcarrier straight
// at its bin's butterfly-order position with the guard bins zeroed, and
// runs the butterflies back-to-back while the twiddles are hot. The TX
// back end (fft.StoreIQ12) then writes each lane, cyclic prefix first,
// scaled by the TX gain, as the 12-bit IQ payload of its antenna's packet
// in dlTime.
func (w *worker) runIFFT(slot int, sym uint16, ant0, count int) {
	e := w.eng
	cfg := &e.cfg
	b := e.buf
	nfft := cfg.OFDMSize
	buf := w.lanes[:count*nfft]
	w.plan.InverseBand(buf, count, b.dlFreq[slot][sym][ant0:], cfg.DataStart(), cfg.DataSubcarriers, cfg.Antennas, 1)
	gain := float32(e.dlGain)
	for l := 0; l < count; l++ {
		pkt := b.dlTime[slot][sym][ant0+l]
		fft.StoreIQ12(pkt[fronthaul.HeaderSize:], buf[l*nfft:(l+1)*nfft], cfg.CPLen, gain)
	}
}
