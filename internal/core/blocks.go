package core

import (
	"repro/internal/cf"
	"repro/internal/channel"
	"repro/internal/fft"
	"repro/internal/frame"
	"repro/internal/ldpc"
	"repro/internal/mat"
	"repro/internal/modulation"
	"repro/internal/obs"
	"repro/internal/queue"
)

// worker holds one worker's private scratch so task execution allocates
// nothing. Workers are created by the engine; each runs runWorker.
type worker struct {
	id  int
	eng *Engine

	plan    *fft.Plan
	lanes   []complex64 // FFTBatch×OFDMSize: one lane per antenna of an FFT or IFFT run
	timeBuf []complex64 // unfused front end: one symbol's unpacked samples (nil when fuseRX)
	stage   []complex64 // staging copy, DisableDirectStore only
	fuseRX  bool        // CP strip + unpack fused into the FFT permutation
	yvec    []complex64 // gathered antenna vector (M)
	xvec    []complex64 // equalized user vector (K)
	bitsBuf []byte      // per-subcarrier modulation bits scratch

	// Blocked-kernel scratch: the BLAS-3 path multiplies whole
	// multi-subcarrier tiles instead of one matvec per subcarrier. The
	// mat.M headers are worker fields so wrapping a buffer region is a
	// field assignment, not an allocation.
	blockMul    mat.BlockKernel // K-row plan for equalization
	blockMulPre mat.BlockKernel // B-row plan for precoding
	xblk        []complex64     // K×strip equalized strip, user-major
	modBlk      []complex64     // K×B modulated tile, user-major
	xtBlk       []complex64     // B×K transpose of modBlk (kernel w operand)
	ytM, xbM    mat.M           // demod: subcarrier strip wrap, output strip
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

	dec    *ldpc.Decoder
	zfws   *mat.ZFWorkspace
	matvec mat.MatVecKernel
	unpack func([]complex64, []byte)
	tab    *modulation.Table
	code   *ldpc.Code

	pilotFreq [][]complex64 // conj of each user's pilot over the data band

	perTask [queue.NumTaskTypes]obs.TaskAcc
}

func newWorker(id int, e *Engine) *worker {
	cfg := &e.cfg
	w := &worker{
		id:      id,
		eng:     e,
		plan:    e.plan,
		lanes:   make([]complex64, cfg.FFTBatch*cfg.OFDMSize),
		yvec:    make([]complex64, cfg.Antennas),
		xvec:    make([]complex64, cfg.Users),
		bitsBuf: make([]byte, int(cfg.Order)),
		zfws:    mat.NewZFWorkspace(cfg.Users),
		matvec:  mat.PlanMatVec(!e.opts.DisableJITGemm),
		tab:     modulation.Get(cfg.Order),
		code:    e.code,
	}
	// Decentralized Gram formation (DESIGN §16): the workspace carries the
	// cluster count so both the equalizer and the precoder (which runs the
	// equalizer internally) partition antennas identically.
	w.zfws.Clusters = e.opts.ZFClusters
	// Blocked-kernel plans and tile scratch: a demod strip spans at most
	// fuseStripCols subcarriers, a precode tile one ZF group.
	w.blockMul = mat.PlanBlockMul(!e.opts.DisableJITGemm, cfg.Users)
	w.blockMulPre = mat.PlanBlockMul(!e.opts.DisableJITGemm, cfg.ZFGroupSize)
	w.xblk = make([]complex64, cfg.Users*fuseStripCols)
	w.modBlk = make([]complex64, cfg.Users*cfg.ZFGroupSize)
	w.xtBlk = make([]complex64, cfg.ZFGroupSize*cfg.Users)
	w.dec = ldpc.NewDecoder(e.code)
	w.dec.Alg = ldpc.NormalizedMinSum
	w.dec.Flooding = e.opts.DisableLayeredDecode
	w.payloadRun = make([][]byte, 0, cfg.FFTBatch)
	w.leaseRun = make([]*rxLease, 0, cfg.FFTBatch)
	w.llrGather = make([]float32, e.scUsed*int(cfg.Order))
	if e.opts.DisableDirectStore {
		w.stage = make([]complex64, cfg.DataSubcarriers)
	}
	if e.opts.DisableSIMDConvert {
		w.unpack = cf.UnpackIQ12Naive
	} else {
		w.unpack = cf.UnpackIQ12
	}
	// The fused RX front end gathers IQ samples straight into digit-reversed
	// FFT order, so it needs the real transform (DummyKernels skips it) and
	// the packed conversion it is built on.
	w.fuseRX = !e.opts.DummyKernels && !e.opts.DisableSIMDConvert
	if !w.fuseRX {
		w.timeBuf = make([]complex64, cfg.SamplesPerSymbol())
	}
	// Precompute conjugated pilots for CSI extraction.
	w.pilotFreq = make([][]complex64, cfg.Users)
	for u := 0; u < cfg.Users; u++ {
		var p []complex64
		if cfg.Pilots == frame.FreqOrthogonal {
			p = channel.FrequencyOrthogonalPilot(cfg.DataSubcarriers, cfg.Users, u)
		} else {
			p = channel.ZadoffChu(cfg.DataSubcarriers, 1)
		}
		cf.Conj(p)
		w.pilotFreq[u] = p
	}
	return w
}

// runPilotFFT is the fused FFT + channel-estimation block (Table 2) over
// a run of count consecutive antennas of one pilot symbol: one fftRun
// front-end call, then CSI extraction walks the lanes with the conjugated
// pilots still cache-resident. Antenna a writes row a of every ZF group's
// CSI matrix — disjoint from all other tasks.
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
// while the twiddles are hot; without it each lane goes through
// loadLane. ok is false when the frame was torn down mid-run (a lease was
// already reclaimed): the remaining leases are, or will be, reclaimed by
// the manager sweep, the ones claimed here are dropped, and the run is
// skipped.
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
	if w.fuseRX {
		w.plan.ForwardIQ12Batch(buf, pay, e.cfg.CPLen, nfft)
	} else {
		for l, p := range pay {
			w.loadLane(buf[l*nfft:(l+1)*nfft], p)
		}
	}
	for _, l := range leases {
		e.releaseRx(l)
	}
	return buf, true
}

// loadLane is the unfused front end of one antenna, for the ablations
// that bypass ForwardIQ12 (DisableSIMDConvert, DummyKernels): unpack the
// whole symbol, strip the cyclic prefix, then transform — the last step
// skipped under DummyKernels, whose FFT only moves the data.
func (w *worker) loadLane(lane []complex64, payload []byte) {
	w.unpack(w.timeBuf, payload)
	copy(lane, w.timeBuf[w.eng.cfg.CPLen:])
	if !w.eng.opts.DummyKernels {
		w.plan.Forward(lane)
	}
}

// extractCSI correlates one antenna's pilot data band against the
// conjugated pilot sequences and writes row ant of every ZF group's CSI
// matrix.
func (w *worker) extractCSI(slot, ant, pilotIdx int, band []complex64) {
	cfg := &w.eng.cfg
	b := w.eng.buf
	groups := cfg.ZFGroups()
	switch cfg.Pilots {
	case frame.FreqOrthogonal:
		// User u's pilot occupies subcarriers sc%K == u; within each
		// group average u's measurements (one per group when K ==
		// ZFGroupSize, the paper's configuration).
		for g := 0; g < groups; g++ {
			lo, hi := b.groupBounds(g)
			row := b.csi[slot][g].Row(ant)
			for u := 0; u < cfg.Users; u++ {
				var acc complex64
				n := 0
				for sc := lo + ((u-lo)%cfg.Users+cfg.Users)%cfg.Users; sc < hi; sc += cfg.Users {
					acc += band[sc] * w.pilotFreq[u][sc] // pilot is 1 -> conj(1)
					n++
				}
				if n > 0 {
					row[u] = acc * complex(1/float32(n), 0)
				}
			}
		}
	case frame.TimeOrthogonal:
		// Pilot symbol pilotIdx belongs to user pilotIdx: full-band ZC.
		u := pilotIdx
		for g := 0; g < groups; g++ {
			lo, hi := b.groupBounds(g)
			var acc complex64
			for sc := lo; sc < hi; sc++ {
				acc += band[sc] * w.pilotFreq[u][sc]
			}
			b.csi[slot][g].Row(ant)[u] = acc * complex(1/float32(hi-lo), 0)
		}
	}
}

// runZF computes the zero-forcing equalizer (and downlink precoder when
// the schedule has downlink symbols) for one subcarrier group.
func (w *worker) runZF(slot int, g int) {
	e := w.eng
	b := e.buf
	h := b.csi[slot][g]
	if e.opts.DummyKernels {
		// Memory behaviour only: read H, write W.
		copy(b.eq[slot][g].Data, h.Data[:len(b.eq[slot][g].Data)])
		return
	}
	switch {
	case e.opts.UseMRC:
		mat.ConjugateEqualizerIntoWS(b.eq[slot][g], h, w.zfws)
	case e.opts.DisableInverseOpt:
		mat.PinvSVDInto(b.eq[slot][g], h, 1e-9)
	default:
		if err := mat.ZFEqualizerInto(b.eq[slot][g], h, w.zfws); err != nil {
			// Singular channel estimate: fall back to conjugate
			// beamforming (§4.2 suggests MRC when ill-conditioned).
			mat.ConjugateEqualizerIntoWS(b.eq[slot][g], h, w.zfws)
		}
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
// symbol: one fftRun front-end call, then a transposed store that writes
// adjacent antennas of each subcarrier row together, so a row's cache
// line is touched once per antenna pair instead of once per antenna. The
// ablation stores (DisableMemOpt, DisableDirectStore) run per antenna.
func (w *worker) runFFT(slot int, sym uint16, ant0, count int) {
	e := w.eng
	cfg := &e.cfg
	nfft := cfg.OFDMSize
	buf, ok := w.fftRun(slot, sym, ant0, count)
	if !ok {
		return
	}
	ds := cfg.DataStart()
	q := cfg.DataSubcarriers
	if e.opts.DisableMemOpt || e.opts.DisableDirectStore {
		for l := 0; l < count; l++ {
			w.storeDataBand(slot, sym, ant0+l, buf[l*nfft+ds:l*nfft+ds+q])
		}
		return
	}
	// Two lanes per pass; an odd run's last antenna goes through the
	// single-antenna store.
	dst := e.buf.dataFreqSC[slot][sym]
	l := 0
	for ; l+1 < count; l += 2 {
		o := l*nfft + ds
		storeAntennaPair(dst, cfg.Antennas, ant0+l, buf[o:o+q], buf[o+nfft:o+nfft+q])
	}
	if l < count {
		w.storeDataBand(slot, sym, ant0+l, buf[l*nfft+ds:l*nfft+ds+q])
	}
}

// storeDataBand writes one antenna's data band into the frame buffer.
func (w *worker) storeDataBand(slot int, sym uint16, a int, band []complex64) {
	e := w.eng
	cfg := &e.cfg
	b := e.buf
	q := cfg.DataSubcarriers
	m := cfg.Antennas
	if e.opts.DisableMemOpt {
		// Antenna-major: contiguous write here, strided gather in demod.
		dst := b.dataFreqAnt[slot][sym][a*q : (a+1)*q]
		if e.opts.DisableDirectStore {
			copy(w.stage[:q], band)
			copy(dst, w.stage[:q])
		} else {
			copy(dst, band)
		}
		return
	}
	// Subcarrier-major: strided transposed write here (the analogue of
	// the paper's non-temporal transposed stores), contiguous read in
	// demod where the data is consumed many times.
	dst := b.dataFreqSC[slot][sym]
	if e.opts.DisableDirectStore {
		copy(w.stage[:q], band)
		band = w.stage[:q]
	}
	for sc := 0; sc < q; sc++ {
		dst[sc*m+a] = band[sc]
	}
}

// storeAntennaPair writes the data bands of antennas a and a+1 into a
// subcarrier-major symbol buffer of m antennas per row: 16 adjacent bytes
// per row instead of two strided 8-byte stores a whole pass apart.
//
// Every row is a cache miss, so the loop runs as fast as the store buffer
// can keep misses in flight. Inlined into runFFT the loop counter
// spills to the stack — a third store per row, a third fewer rows in
// flight, 10 % of wide_array's frame rate — hence its own frame.
//
//go:noinline
func storeAntennaPair(dst []complex64, m, a int, b0, b1 []complex64) {
	b1 = b1[:len(b0)]
	for sc, v := range b0 {
		row := dst[sc*m+a : sc*m+a+2 : sc*m+a+2]
		row[0], row[1] = v, b1[sc]
	}
}

// nominalNoise is the noise variance handed to soft demodulation; the
// normalized min-sum decoder is scale invariant so a fixed value suffices.
const nominalNoise = 0.1

// runDemod is the fused equalization + soft demodulation block: one task
// covers DemodBlockSize consecutive subcarriers of one uplink symbol and
// writes every user's LLRs for those subcarriers — through
// equalizeDemodBlock, or through the per-subcarrier runDemodScalar under
// the antenna-major layout (DisableMemOpt) and DummyKernels.
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
	if e.opts.DisableMemOpt || e.opts.DummyKernels {
		w.runDemodScalar(slot, sym, lo, hi)
		return
	}
	w.equalizeDemodBlock(slot, sym, lo, hi)
}

// fuseStripCols is the strip width of the fused equalize+demodulate
// kernel: narrow enough that the K×strip equalized scratch stays L1/L2
// resident between the multiply that produces it and the demodulation
// that consumes it, wide enough to amortize the kernel's per-call setup.
const fuseStripCols = 16

// equalizeDemodBlock is the blocked (BLAS-3) path of runDemod: it never
// materializes the full K×B equalized tile. Each ZF-group-aligned
// sub-block is processed in strips of fuseStripCols subcarriers — one
// MulBlockInto, wrapping the subcarrier-major FFT output region in place
// as the strip×M transposed operand, into a small K×strip scratch,
// immediately consumed by one DemodulateSoftSoA call that writes all K
// users' LLRs for those subcarriers as a single contiguous llrSC span.
// The equalized symbols are demodulated while still cache-hot and are
// never written back to shared memory; the per-column arithmetic of
// MulBlockInto is independent of strip width, so the LLRs are
// bit-identical to a whole-tile multiply.
func (w *worker) equalizeDemodBlock(slot int, sym uint16, lo, hi int) {
	e := w.eng
	cfg := &e.cfg
	b := e.buf
	m := cfg.Antennas
	k := cfg.Users
	order := int(cfg.Order)
	dst := b.llrSC[slot][sym]
	for s0 := lo; s0 < hi; {
		g := s0 / cfg.ZFGroupSize
		s1 := (g + 1) * cfg.ZFGroupSize
		if s1 > hi {
			s1 = hi
		}
		for j0 := s0; j0 < s1; {
			j1 := j0 + fuseStripCols
			if j1 > s1 {
				j1 = s1
			}
			ns := j1 - j0
			w.ytM = mat.M{Rows: ns, Cols: m, Data: b.dataFreqSC[slot][sym][j0*m : j1*m]}
			w.xbM = mat.M{Rows: k, Cols: ns, Data: w.xblk[:k*ns]}
			w.blockMul(&w.xbM, b.eq[slot][g], &w.ytM)
			w.tab.DemodulateSoftSoA(dst[j0*k*order:j1*k*order],
				w.xblk[:k*ns], k, ns, nominalNoise)
			j0 = j1
		}
		s0 = s1
	}
}

// runDemodScalar is the per-subcarrier demod path over [lo, hi): one
// gather, one matvec and one per-symbol demodulation per subcarrier.
func (w *worker) runDemodScalar(slot int, sym uint16, lo, hi int) {
	e := w.eng
	cfg := &e.cfg
	b := e.buf
	q := cfg.DataSubcarriers
	m := cfg.Antennas
	k := cfg.Users
	order := int(cfg.Order)
	for sc := lo; sc < hi; sc++ {
		// Gather received vector y across antennas.
		if e.opts.DisableMemOpt {
			src := b.dataFreqAnt[slot][sym]
			for a := 0; a < m; a++ {
				w.yvec[a] = src[a*q+sc]
			}
		} else {
			copy(w.yvec, b.dataFreqSC[slot][sym][sc*m:(sc+1)*m])
		}
		dst := b.llrSC[slot][sym][sc*k*order : (sc+1)*k*order]
		if e.opts.DummyKernels {
			for u := 0; u < k; u++ {
				v := real(w.yvec[u%m])
				for t := 0; t < order; t++ {
					dst[u*order+t] = v
				}
			}
			continue
		}
		w.matvec(w.xvec, b.eq[slot][sc/cfg.ZFGroupSize], w.yvec)
		// One subcarrier is a users×1 tile: the SoA kernel writes all K
		// users' LLRs for subcarrier sc as one contiguous span.
		w.tab.DemodulateSoftSoA(dst, w.xvec[:k], k, 1, nominalNoise)
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
	if e.opts.DummyKernels {
		var s float32
		for _, v := range llr {
			s += v
		}
		out := b.decoded[slot][sym][user]
		for i := range out {
			out[i] = byte(int(s) & 1)
		}
		b.decodeOK[slot][sym][user] = true
		return
	}
	res := w.dec.Decode(b.decoded[slot][sym][user],
		llr[:e.code.N()], e.cfg.DecodeIter)
	b.decodeOK[slot][sym][user] = res.OK
	e.met.ObserveDecode(res.Iterations, res.OK && res.Iterations < e.cfg.DecodeIter)
}

// runEncode encodes one user's downlink code block.
func (w *worker) runEncode(slot int, sym uint16, user int) {
	b := w.eng.buf
	if w.eng.opts.DummyKernels {
		copy(b.encoded[slot][sym][user], b.macBits[slot][sym][user])
		return
	}
	w.code.Encode(b.encoded[slot][sym][user], b.macBits[slot][sym][user])
}

// runPrecode is the fused modulation + precoding block: one task covers
// one subcarrier group of one downlink symbol. preSlot selects which
// frame's precoder to apply: normally the frame's own slot, but with the
// §3.4.2 stale-precoder optimization it is the previous frame's slot.
//
// The path is blocked: each user's symbols for the whole group are
// modulated in one ModulateBlock call, the tile is transposed to B×K, and
// a single MulBlockInto against the M×K precoder writes the group's B×M
// region of the subcarrier-major downlink grid in place.
func (w *worker) runPrecode(slot int, sym uint16, g int, preSlot int) {
	e := w.eng
	cfg := &e.cfg
	b := e.buf
	lo, hi := b.groupBounds(g)
	if e.opts.DummyKernels {
		w.runPrecodeScalar(slot, sym, lo, hi)
		return
	}
	m := cfg.Antennas
	k := cfg.Users
	nb := hi - lo
	n := e.code.N()
	for u := 0; u < k; u++ {
		// Bits beyond the codeword zero-pad.
		w.tab.ModulateBlock(w.modBlk[u*nb:(u+1)*nb], b.encoded[slot][sym][u][:n], lo)
	}
	// Transpose the user-major tile to subcarrier rows: the kernel's w
	// operand is B×K with row j holding every user's symbol on subcarrier
	// lo+j.
	for u := 0; u < k; u++ {
		src := w.modBlk[u*nb : (u+1)*nb]
		for j, v := range src {
			w.xtBlk[j*k+u] = v
		}
	}
	w.xtM = mat.M{Rows: nb, Cols: k, Data: w.xtBlk[:nb*k]}
	w.outM = mat.M{Rows: nb, Cols: m, Data: b.dlFreq[slot][sym][lo*m : hi*m]}
	// dlFreq[sc][a] = Σ_u Xt[sc][u] · pre[a][u]: exactly dst = w·ytᵀ.
	w.blockMulPre(&w.outM, &w.xtM, b.pre[preSlot][g])
}

// runPrecodeScalar is the DummyKernels precode: per-subcarrier modulation,
// with the precoder multiply replaced by a copy of the user symbols into
// the grid row.
func (w *worker) runPrecodeScalar(slot int, sym uint16, lo, hi int) {
	e := w.eng
	cfg := &e.cfg
	b := e.buf
	m := cfg.Antennas
	k := cfg.Users
	order := int(cfg.Order)
	n := e.code.N()
	dst := b.dlFreq[slot][sym]
	for sc := lo; sc < hi; sc++ {
		// Modulate each user's bits for this subcarrier.
		for u := 0; u < k; u++ {
			off := sc * order
			for t := 0; t < order; t++ {
				if off+t < n {
					w.bitsBuf[t] = b.encoded[slot][sym][u][off+t]
				} else {
					w.bitsBuf[t] = 0
				}
			}
			w.tab.Modulate(w.xvec[u:u+1], w.bitsBuf)
		}
		copy(dst[sc*m:sc*m+min(m, k)], w.xvec[:min(m, k)])
	}
}

// runIFFT transforms a run of count consecutive antennas of one downlink
// symbol with a single strided InverseBatch call over the worker's lane
// buffer: the gather reads each subcarrier-major source row once (the
// antennas are adjacent within a row), the butterflies run back-to-back
// while the twiddles are hot, and the CP/scale epilogue is per lane,
// leaving each antenna's samples in dlTime ready for packetization.
// DummyKernels skips the transform.
func (w *worker) runIFFT(slot int, sym uint16, ant0, count int) {
	e := w.eng
	cfg := &e.cfg
	b := e.buf
	nfft := cfg.OFDMSize
	q := cfg.DataSubcarriers
	m := cfg.Antennas
	ds := cfg.DataStart()
	buf := w.lanes[:count*nfft]
	cf.Fill(buf, 0)
	src := b.dlFreq[slot][sym]
	for sc := 0; sc < q; sc++ {
		row := src[sc*m+ant0 : sc*m+ant0+count]
		for l, v := range row {
			buf[l*nfft+ds+sc] = v
		}
	}
	if !e.opts.DummyKernels {
		w.plan.InverseBatch(buf, count, nfft)
	}
	gain := float32(e.dlGain)
	for l := 0; l < count; l++ {
		t := buf[l*nfft : (l+1)*nfft]
		out := b.dlTime[slot][sym][ant0+l]
		if cfg.CPLen > 0 {
			copy(out, t[nfft-cfg.CPLen:])
		}
		copy(out[cfg.CPLen:], t)
		cf.Scale(out, gain)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
