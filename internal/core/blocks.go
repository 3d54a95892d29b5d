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
	timeBuf []complex64
	freqBuf []complex64
	ifftBuf []complex64 // FFTBatch×OFDMSize lanes for batched FFT runs (uplink) and IFFTs (downlink)
	stage   []complex64 // staging copy when DisableDirectStore
	fuseRX  bool        // CP strip + unpack fused into the FFT permutation
	yvec    []complex64 // gathered antenna vector (M)
	xvec    []complex64 // equalized user vector (K)
	symLLR  []float32   // per-subcarrier LLR scratch
	bitsBuf []byte      // per-subcarrier modulation bits scratch

	// Blocked-kernel scratch: the BLAS-3 path multiplies whole
	// multi-subcarrier tiles instead of one matvec per subcarrier. The
	// mat.M headers are worker fields so wrapping a buffer region is a
	// field assignment, not an allocation.
	blockMul    mat.BlockKernel // K-row plan for equalization
	blockMulPre mat.BlockKernel // B-row plan for precoding
	xblk        []complex64     // K×B equalized tile, user-major
	modBlk      []complex64     // K×B modulated tile, user-major
	xtBlk       []complex64     // B×K transpose of modBlk (kernel w operand)
	ytM, xbM    mat.M           // demod: subcarrier block wrap, output tile
	xtM, outM   mat.M           // precode: symbol tile, downlink grid wrap

	// SoA LLR state: the fused equalize+demod kernel writes llrSC
	// directly; the decoder gathers one user's strided lane into
	// llrGather so the LDPC kernel keeps its contiguous input.
	soaLLR    bool
	llrGather []float32
	// payloadRun collects an antenna run's RX payloads for the batched
	// pilot front end (one lane per payload); leaseRun tracks the
	// zero-copy leases claimed for the run so they release after the
	// batched transform consumes them.
	payloadRun [][]byte
	leaseRun   []*rxLease

	dec    *ldpc.Decoder
	zfws   *mat.ZFWorkspace
	matvec mat.MatVecKernel
	gemm   mat.GemmKernel
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
		timeBuf: make([]complex64, cfg.SamplesPerSymbol()),
		freqBuf: make([]complex64, cfg.OFDMSize),
		stage:   make([]complex64, cfg.DataSubcarriers*cfg.Antennas),
		yvec:    make([]complex64, cfg.Antennas),
		xvec:    make([]complex64, cfg.Users),
		symLLR:  make([]float32, int(cfg.Order)),
		bitsBuf: make([]byte, int(cfg.Order)),
		zfws:    mat.NewZFWorkspace(cfg.Users),
		matvec:  mat.PlanMatVec(!e.opts.DisableJITGemm),
		gemm:    mat.PlanGemm(!e.opts.DisableJITGemm),
		tab:     modulation.Get(cfg.Order),
		code:    e.code,
	}
	// Decentralized Gram formation (DESIGN §16): the workspace carries the
	// cluster count so both the equalizer and the precoder (which runs the
	// equalizer internally) partition antennas identically.
	w.zfws.Clusters = e.opts.ZFClusters
	// Blocked-kernel plans and tile scratch. A demod tile spans at most one
	// ZF group (it must share an equalizer) and at most one demod block; a
	// precode tile spans one ZF group. maxB covers both.
	maxB := cfg.DemodBlockSize
	if cfg.ZFGroupSize > maxB {
		maxB = cfg.ZFGroupSize
	}
	w.blockMul = mat.PlanBlockMul(!e.opts.DisableJITGemm, cfg.Users)
	w.blockMulPre = mat.PlanBlockMul(!e.opts.DisableJITGemm, cfg.ZFGroupSize)
	w.xblk = make([]complex64, cfg.Users*maxB)
	w.modBlk = make([]complex64, cfg.Users*maxB)
	w.xtBlk = make([]complex64, maxB*cfg.Users)
	w.dec = ldpc.NewDecoder(e.code)
	w.dec.Alg = ldpc.NormalizedMinSum
	w.dec.Flooding = e.opts.DisableLayeredDecode
	batchLanes := cfg.FFTBatch
	if batchLanes < 1 {
		batchLanes = 1
	}
	w.ifftBuf = make([]complex64, batchLanes*cfg.OFDMSize)
	w.payloadRun = make([][]byte, 0, batchLanes)
	w.leaseRun = make([]*rxLease, 0, batchLanes)
	w.soaLLR = !e.opts.DisableSoALLR
	if w.soaLLR {
		w.llrGather = make([]float32, e.scUsed*int(cfg.Order))
	}
	if e.opts.DisableSIMDConvert {
		w.unpack = cf.UnpackIQ12Naive
	} else {
		w.unpack = cf.UnpackIQ12
	}
	// The fused RX front end gathers IQ samples straight into digit-reversed
	// FFT order, so it needs the real transform (DummyKernels skips it) and
	// the packed conversion it is built on.
	w.fuseRX = !e.opts.DummyKernels && !e.opts.DisableSIMDConvert && !e.opts.DisableSplitRadixFFT
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

// fftIntoDataBand unpacks a received payload, strips the cyclic prefix,
// runs the FFT and leaves the data band in w.freqBuf[dataStart:…].
//
// The default path is fused: ForwardIQ12 dequantizes each 24-bit IQ word
// directly into its digit-reversed slot while skipping the CP, so the
// symbol's samples are touched once instead of three times (unpack pass,
// CP-strip copy, permutation pass). The ablations that disable the packed
// conversion or the split-radix engine fall back to the staged path.
func (w *worker) fftIntoDataBand(payload []byte) {
	cfg := &w.eng.cfg
	if w.fuseRX {
		w.plan.ForwardIQ12(w.freqBuf, payload, cfg.CPLen)
		return
	}
	w.unpack(w.timeBuf[:cfg.SamplesPerSymbol()], payload)
	if cfg.CPLen > 0 {
		copy(w.timeBuf, w.timeBuf[cfg.CPLen:cfg.SamplesPerSymbol()])
	}
	copy(w.freqBuf, w.timeBuf[:cfg.OFDMSize])
	if !w.eng.opts.DummyKernels {
		w.plan.Forward(w.freqBuf)
	}
}

// runPilotFFT is the fused FFT + channel-estimation block (Table 2): one
// task covers one antenna of one pilot symbol. Antenna a writes row a of
// every ZF group's CSI matrix — disjoint from all other tasks.
func (w *worker) runPilotFFT(slot int, sym, ant uint16, pilotIdx int) {
	cfg := &w.eng.cfg
	pay, l := w.eng.rxPayload(slot, sym, ant)
	if pay == nil {
		return // lease reclaimed: the frame died before this task ran
	}
	w.fftIntoDataBand(pay)
	w.eng.releaseRx(l) // payload consumed; the transform lives in freqBuf
	band := w.freqBuf[cfg.DataStart() : cfg.DataStart()+cfg.DataSubcarriers]
	w.extractCSI(slot, int(ant), pilotIdx, band)
}

// runPilotFFTBatch covers a run of count consecutive antennas of one
// pilot symbol with a single ForwardIQ12Batch call over the worker's lane
// buffer — the uplink mirror of runIFFTBatch: each lane fuses CP strip,
// 12-bit unpack and the input permutation, the butterfly passes run back
// to back while the twiddles are hot, and CSI extraction walks the lanes
// with the conjugated pilots still cache-resident. Falls back to the
// per-antenna path when the fused front end is unavailable (ablations,
// DummyKernels) or the run exceeds the provisioned lanes.
func (w *worker) runPilotFFTBatch(slot int, sym uint16, ant0, count, pilotIdx int) {
	e := w.eng
	cfg := &e.cfg
	nfft := cfg.OFDMSize
	if !w.canBatchRX(count) {
		for i := 0; i < count; i++ {
			w.runPilotFFT(slot, sym, uint16(ant0+i), pilotIdx)
		}
		return
	}
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

// canBatchRX reports whether a run of count antennas can go through
// fftRun: a real run, the fused front end available (not under the
// ablations that bypass it, nor DummyKernels) and enough lanes.
func (w *worker) canBatchRX(count int) bool {
	return count > 1 && w.fuseRX && count*w.eng.cfg.OFDMSize <= len(w.ifftBuf)
}

// fftRun is the batched RX front end shared by the pilot and data FFT
// blocks: it claims the payloads of antennas ant0..ant0+count-1 of one
// symbol, transforms them with a single ForwardIQ12Batch call into the
// worker's lane buffer (lane l = antenna ant0+l, OFDMSize apart) and
// releases the leases. ok is false when the frame was torn down mid-run
// (a lease was already reclaimed): the remaining leases are, or will be,
// reclaimed by the manager sweep, the ones claimed here are dropped, and
// the run is skipped. The caller has checked canBatchRX.
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
	buf = w.ifftBuf[:count*nfft]
	w.plan.ForwardIQ12Batch(buf, pay, e.cfg.CPLen, nfft)
	for _, l := range leases {
		e.releaseRx(l)
	}
	return buf, true
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

// runFFT transforms one antenna of one uplink data symbol and stores the
// data band in the layout selected by the memory-access option.
func (w *worker) runFFT(slot int, sym, ant uint16) {
	e := w.eng
	cfg := &e.cfg
	pay, l := e.rxPayload(slot, sym, ant)
	if pay == nil {
		return // lease reclaimed: the frame died before this task ran
	}
	w.fftIntoDataBand(pay)
	e.releaseRx(l) // payload consumed; the transform lives in freqBuf
	w.storeDataBand(slot, sym, int(ant), w.freqBuf[cfg.DataStart():cfg.DataStart()+cfg.DataSubcarriers])
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

// runFFTBatch covers a run of count consecutive antennas of one uplink
// data symbol — the data-symbol counterpart of runPilotFFTBatch: one
// batched front-end call, then a transposed store that writes adjacent
// antennas of each subcarrier row together, so a row's cache line is
// touched once per antenna pair instead of once per antenna. Falls back to
// the per-antenna path under the same conditions as the pilot block.
func (w *worker) runFFTBatch(slot int, sym uint16, ant0, count int) {
	e := w.eng
	cfg := &e.cfg
	nfft := cfg.OFDMSize
	if !w.canBatchRX(count) {
		for i := 0; i < count; i++ {
			w.runFFT(slot, sym, uint16(ant0+i))
		}
		return
	}
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

// storeAntennaPair writes the data bands of antennas a and a+1 into a
// subcarrier-major symbol buffer of m antennas per row: 16 adjacent bytes
// per row instead of two strided 8-byte stores a whole pass apart.
//
// Every row is a cache miss, so the loop runs as fast as the store buffer
// can keep misses in flight. Inlined into runFFTBatch the loop counter
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
// writes every user's LLRs for those subcarriers.
//
// The default path is blocked (BLAS-3): each ZF-group-aligned sub-block of
// B subcarriers is one MulBlockInto call — the subcarrier-major FFT output
// region [lo*M, hi*M) is wrapped in place as the B×M transposed operand —
// followed by one batched demodulation call per user covering the whole
// tile. DisableBlockGemm (and the layouts that preclude it) falls back to
// the historical per-subcarrier matvec loop.
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
	if e.opts.DisableBlockGemm || e.opts.DisableMemOpt || e.opts.DummyKernels {
		w.runDemodScalar(slot, sym, lo, hi)
		return
	}
	if w.soaLLR {
		w.equalizeDemodBlock(slot, sym, lo, hi)
		return
	}
	b := e.buf
	m := cfg.Antennas
	k := cfg.Users
	order := int(cfg.Order)
	for s0 := lo; s0 < hi; {
		g := s0 / cfg.ZFGroupSize
		s1 := (g + 1) * cfg.ZFGroupSize
		if s1 > hi {
			s1 = hi
		}
		nb := s1 - s0
		w.ytM = mat.M{Rows: nb, Cols: m, Data: b.dataFreqSC[slot][sym][s0*m : s1*m]}
		w.xbM = mat.M{Rows: k, Cols: nb, Data: w.xblk[:k*nb]}
		w.blockMul(&w.xbM, b.eq[slot][g], &w.ytM)
		// Row u of the output tile holds user u's equalized symbols for
		// [s0,s1); their LLRs occupy the contiguous span [s0*order,
		// s1*order) of the user's LLR buffer, so demodulation writes the
		// decoder input directly with no per-subcarrier staging.
		for u := 0; u < k; u++ {
			w.tab.DemodulateSoftBlock(b.llr[slot][sym][u][s0*order:s1*order],
				w.xblk[u*nb:(u+1)*nb], nominalNoise)
		}
		s0 = s1
	}
}

// fuseStripCols is the strip width of the fused equalize+demodulate
// kernel: narrow enough that the K×strip equalized scratch stays L1/L2
// resident between the multiply that produces it and the demodulation
// that consumes it, wide enough to amortize the kernel's per-call setup.
const fuseStripCols = 16

// equalizeDemodBlock is the fused SoA path of runDemod: it never
// materializes the full K×B equalized tile. Each ZF-group-aligned
// sub-block is processed in strips of fuseStripCols subcarriers — one
// MulBlockInto into a small K×strip scratch, immediately consumed by one
// DemodulateSoftSoA call that writes all K users' LLRs for those
// subcarriers as a single contiguous llrSC span. The equalized symbols
// are demodulated while still cache-hot and are never written back to
// shared memory; the per-column arithmetic of MulBlockInto is
// independent of strip width, so the LLRs are bit-identical to the AoS
// full-tile path.
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
		g := sc / cfg.ZFGroupSize
		if e.opts.DummyKernels {
			if w.soaLLR {
				dst := b.llrSC[slot][sym][sc*k*order : (sc+1)*k*order]
				for u := 0; u < k; u++ {
					v := real(w.yvec[u%m])
					for t := 0; t < order; t++ {
						dst[u*order+t] = v
					}
				}
				continue
			}
			for u := 0; u < k; u++ {
				off := sc * order
				for t := 0; t < order; t++ {
					b.llr[slot][sym][u][off+t] = real(w.yvec[u%m])
				}
			}
			continue
		}
		w.matvec(w.xvec, b.eq[slot][g], w.yvec)
		if w.soaLLR {
			// One subcarrier is a users×1 tile: the SoA kernel writes all K
			// users' LLRs for subcarrier sc as one contiguous span.
			w.tab.DemodulateSoftSoA(b.llrSC[slot][sym][sc*k*order:(sc+1)*k*order],
				w.xvec[:k], k, 1, nominalNoise)
			continue
		}
		for u := 0; u < k; u++ {
			w.tab.DemodulateSoft(w.symLLR, w.xvec[u:u+1], nominalNoise)
			copy(b.llr[slot][sym][u][sc*order:(sc+1)*order], w.symLLR)
		}
	}
}

// userLLR returns one user's contiguous LLR view for a symbol. With the
// AoS layout that is simply the user's buffer; with the SoA layout the
// user's lane is gathered (stride K*order) into the worker's llrGather
// scratch — the decoder's only extra traffic under the fused layout, one
// strided read of data the demodulator wrote exactly once.
func (w *worker) userLLR(slot int, sym uint16, user int) []float32 {
	e := w.eng
	b := e.buf
	if !w.soaLLR {
		return b.llr[slot][sym][user]
	}
	order := int(e.cfg.Order)
	gatherLLR(w.llrGather, b.llrSC[slot][sym][user*order:], order, e.cfg.Users*order, e.scUsed)
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
// The default path is blocked: each user's symbols for the whole group are
// modulated in one ModulateBlock call, the tile is transposed to B×K, and
// a single MulBlockInto against the M×K precoder writes the group's B×M
// region of the subcarrier-major downlink grid in place.
func (w *worker) runPrecode(slot int, sym uint16, g int, preSlot int) {
	e := w.eng
	cfg := &e.cfg
	b := e.buf
	lo, hi := b.groupBounds(g)
	if e.opts.DisableBlockGemm || e.opts.DummyKernels {
		w.runPrecodeScalar(slot, sym, lo, hi, preSlot, g)
		return
	}
	m := cfg.Antennas
	k := cfg.Users
	nb := hi - lo
	n := e.code.N()
	for u := 0; u < k; u++ {
		// Bits beyond the codeword zero-pad, matching the scalar path.
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

// runPrecodeScalar is the per-subcarrier modulation + precoding path.
func (w *worker) runPrecodeScalar(slot int, sym uint16, lo, hi, preSlot, g int) {
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
		if e.opts.DummyKernels {
			copy(dst[sc*m:sc*m+min(m, k)], w.xvec[:min(m, k)])
			continue
		}
		// y = W_pre (M×K) · x (K) written subcarrier-major.
		w.matvec(dst[sc*m:(sc+1)*m], b.pre[preSlot][g], w.xvec)
	}
}

// runIFFT gathers one antenna's downlink frequency grid, transforms it to
// the time domain and leaves it in dlTime ready for packetization.
func (w *worker) runIFFT(slot int, sym, ant uint16) {
	e := w.eng
	cfg := &e.cfg
	b := e.buf
	q := cfg.DataSubcarriers
	m := cfg.Antennas
	a := int(ant)
	cf.Fill(w.freqBuf, 0)
	src := b.dlFreq[slot][sym]
	band := w.freqBuf[cfg.DataStart() : cfg.DataStart()+q]
	for sc := 0; sc < q; sc++ {
		band[sc] = src[sc*m+a]
	}
	if !e.opts.DummyKernels {
		w.plan.Inverse(w.freqBuf)
	}
	out := b.dlTime[slot][sym][a]
	// Cyclic prefix: copy the symbol tail in front.
	if cfg.CPLen > 0 {
		copy(out, w.freqBuf[cfg.OFDMSize-cfg.CPLen:])
	}
	copy(out[cfg.CPLen:], w.freqBuf)
	cf.Scale(out, float32(e.dlGain))
}

// runIFFTBatch transforms a run of count consecutive antennas of one
// downlink symbol with a single strided InverseBatch call over the
// worker's lane buffer: the gather reads each subcarrier-major source row
// once (the antennas are adjacent within a row), the butterflies run
// back-to-back while the twiddles are hot, and the CP/scale epilogue is
// per lane. Falls back to the per-antenna path for the ablations and for
// counts beyond the provisioned lanes.
func (w *worker) runIFFTBatch(slot int, sym uint16, ant0, count int) {
	e := w.eng
	cfg := &e.cfg
	nfft := cfg.OFDMSize
	if count <= 1 || e.opts.DummyKernels || e.opts.DisableSplitRadixFFT ||
		count*nfft > len(w.ifftBuf) {
		for i := 0; i < count; i++ {
			w.runIFFT(slot, sym, uint16(ant0+i))
		}
		return
	}
	b := e.buf
	q := cfg.DataSubcarriers
	m := cfg.Antennas
	ds := cfg.DataStart()
	buf := w.ifftBuf[:count*nfft]
	cf.Fill(buf, 0)
	src := b.dlFreq[slot][sym]
	for sc := 0; sc < q; sc++ {
		row := src[sc*m+ant0 : sc*m+ant0+count]
		for l, v := range row {
			buf[l*nfft+ds+sc] = v
		}
	}
	w.plan.InverseBatch(buf, count, nfft)
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
