package core

import (
	"repro/internal/frame"
	"repro/internal/mat"
)

// buffers is the global shared memory all workers exchange intermediate
// results through (paper §3.2). Every array is preallocated for Slots
// frames; tasks of one block write disjoint regions so no locking is
// needed (§4.1 "reducing sharing").
type buffers struct {
	cfg   *frame.Config
	slots int

	// csi holds the estimated channel per ZF group: [slot][group] is an
	// M×K matrix whose row m is written exclusively by the pilot-FFT task
	// of antenna m.
	csi [][]*mat.M

	// csiAcc counts, per slot and group, how many pilot contributions
	// must still arrive before ZF may run (informational; gating is done
	// by task counting in the manager).
	// equalizer W per group: [slot][group], K×M, written by the ZF task.
	eq [][]*mat.M
	// precoder per group for the downlink: [slot][group], M×K.
	pre [][]*mat.M

	// The post-FFT uplink grid, in exactly one of two layouts per engine:
	// dataFreqSC is the subcarrier-major buffer the memory-access
	// optimization writes, [slot][symbol][sc*M + m]; dataFreqAnt is the
	// antenna-major layout of its ablation (Options.DisableMemOpt),
	// [slot][symbol][m*Q + sc] over the data band only (Q = data SCs).
	dataFreqSC  [][][]complex64
	dataFreqAnt [][][]complex64

	// llrSC is the soft demodulator output, subcarrier-major SoA
	// (DESIGN §9): [slot][symbol][(sc*K + user)*order + bit], so the demod
	// output for a tile of subcarriers [s0,s1) is the single contiguous
	// span [s0*K*order, s1*K*order) and the fused equalize+demod kernel
	// writes one stream. Only the scUsed subcarriers that carry code bits
	// are provisioned. The decoder gathers its per-user codeword view with
	// a strided copy (stride K*order) into worker scratch.
	llrSC [][][]float32

	// decoded holds uplink hard bits: [slot][symbol][user][K bits], and
	// decodeOK whether the block passed its parity check.
	decoded  [][][][]byte
	decodeOK [][][]bool

	// macBits is the downlink input from the MAC: [slot][symbol][user][K].
	macBits [][][][]byte
	// encoded downlink codewords: [slot][symbol][user][N].
	encoded [][][][]byte
	// dlFreq is the precoded downlink frequency grid, subcarrier-major:
	// [slot][symbol][sc*M + m].
	dlFreq [][][]complex64
	// dlTime is the downlink time-domain output per antenna:
	// [slot][symbol][antenna][samples].
	dlTime [][][][]complex64
}

func newBuffers(cfg *frame.Config, slots int, antMajor bool) *buffers {
	b := &buffers{cfg: cfg, slots: slots}
	nSym := cfg.NumSymbols()
	m := cfg.Antennas
	k := cfg.Users
	q := cfg.DataSubcarriers
	groups := cfg.ZFGroups()
	code := cfg.Code()
	llrBits := cfg.UsedSubcarriers() * int(cfg.Order)

	b.csi = make([][]*mat.M, slots)
	b.eq = make([][]*mat.M, slots)
	b.pre = make([][]*mat.M, slots)
	b.dataFreqSC = make([][][]complex64, slots)
	b.dataFreqAnt = make([][][]complex64, slots)
	b.llrSC = make([][][]float32, slots)
	b.decoded = make([][][][]byte, slots)
	b.decodeOK = make([][][]bool, slots)
	b.macBits = make([][][][]byte, slots)
	b.encoded = make([][][][]byte, slots)
	b.dlFreq = make([][][]complex64, slots)
	b.dlTime = make([][][][]complex64, slots)

	for s := 0; s < slots; s++ {
		b.dataFreqSC[s] = make([][]complex64, nSym)
		b.dataFreqAnt[s] = make([][]complex64, nSym)
		b.llrSC[s] = make([][]float32, nSym)
		b.decoded[s] = make([][][]byte, nSym)
		b.decodeOK[s] = make([][]bool, nSym)
		b.macBits[s] = make([][][]byte, nSym)
		b.encoded[s] = make([][][]byte, nSym)
		b.dlFreq[s] = make([][]complex64, nSym)
		b.dlTime[s] = make([][][]complex64, nSym)
		for sym := 0; sym < nSym; sym++ {
			st := cfg.SymbolAt(sym)
			if st == frame.Uplink {
				if antMajor {
					b.dataFreqAnt[s][sym] = make([]complex64, q*m)
				} else {
					b.dataFreqSC[s][sym] = make([]complex64, q*m)
				}
				b.decoded[s][sym] = make([][]byte, k)
				b.decodeOK[s][sym] = make([]bool, k)
				b.llrSC[s][sym] = make([]float32, k*llrBits)
				for u := 0; u < k; u++ {
					b.decoded[s][sym][u] = make([]byte, code.K())
				}
			}
			if st == frame.Downlink {
				b.macBits[s][sym] = make([][]byte, k)
				b.encoded[s][sym] = make([][]byte, k)
				for u := 0; u < k; u++ {
					b.macBits[s][sym][u] = make([]byte, code.K())
					b.encoded[s][sym][u] = make([]byte, code.N())
				}
				b.dlFreq[s][sym] = make([]complex64, q*m)
				b.dlTime[s][sym] = make([][]complex64, m)
				for a := 0; a < m; a++ {
					b.dlTime[s][sym][a] = make([]complex64, cfg.SamplesPerSymbol())
				}
			}
		}
		b.csi[s] = make([]*mat.M, groups)
		b.eq[s] = make([]*mat.M, groups)
		b.pre[s] = make([]*mat.M, groups)
		for g := 0; g < groups; g++ {
			b.csi[s][g] = mat.New(m, k)
			b.eq[s][g] = mat.New(k, m)
			b.pre[s][g] = mat.New(m, k)
		}
	}
	return b
}

// groupBounds returns the [lo,hi) data-subcarrier range of ZF group g.
func (b *buffers) groupBounds(g int) (int, int) {
	lo := g * b.cfg.ZFGroupSize
	hi := lo + b.cfg.ZFGroupSize
	if hi > b.cfg.DataSubcarriers {
		hi = b.cfg.DataSubcarriers
	}
	return lo, hi
}
