// Package modulation implements the QAM constellations used by Agora:
// QPSK, 16-QAM, 64-QAM and 256-QAM with Gray mapping, plus hard-decision
// demodulation and max-log-MAP soft demodulation producing the LLRs the
// LDPC decoder consumes.
//
// Bit convention: for 2B-bit QAM, the first B bits select the I (real)
// coordinate and the last B bits the Q (imaginary) coordinate, each Gray
// coded. Constellations are normalized to unit average energy.
//
// Kernel entry points. Modulate/Demodulate are the per-symbol forms; the
// engine calls the batched kernels, which differ only in traversal order,
// never in per-symbol arithmetic:
//
//   - ModulateStrided (block.go) maps one user's coded-bit range to
//     constellation points stride apart (codeword tail zero-padded): the
//     precoder writes each user's column of a subcarrier-major tile.
//     ModulateBlock is its stride-1 call.
//   - DemodulateSoft writes the LLRs of a run of symbols contiguously,
//     symbol after symbol: [s*bits+t].
//   - DemodulateSoftSoA (block.go) consumes a users×nsc equalized tile
//     (the mat.MulBlockInto output, user-major rows) column-wise and
//     writes the subcarrier-major layout [sc][user][bit] in a single
//     pass: the demod output for a tile of subcarriers is one contiguous
//     span.
//
// Reference and kernel. axisLLR (block.go) is the soft demodulator's
// arithmetic: the squared distance to every PAM level, a min per bit
// value, one subtract and one multiply per bit. DemodulateSoft runs it as
// written, on every host, and is the reference. DemodulateSoftSoA, the
// entry point the engine serves frames with, runs it through the
// platform's vector kernel where there is one (amd64 with AVX2:
// demod_amd64.s, selected by CPUID at init, reported by Kernel; see
// kernel.go) and as written elsewhere and on the columns the kernel does
// not cover. The contract between them is bit identity: for every input —
// NaNs, infinities and a clamped noise variance included — every kernel
// writes the LLR bits axisLLR would, so LLRs are identical across entry
// points and hosts. The core engine's LLR equivalence tests rely on that,
// as does every decoder iteration count the benchmark reports.
package modulation

import (
	"fmt"
	"math"
)

// Order identifies a constellation by bits per symbol.
type Order int

// Supported constellation orders.
const (
	QPSK   Order = 2
	QAM16  Order = 4
	QAM64  Order = 6
	QAM256 Order = 8
)

// String implements fmt.Stringer.
func (o Order) String() string {
	switch o {
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	case QAM256:
		return "256-QAM"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Table holds a precomputed constellation.
type Table struct {
	Order  Order
	points []complex64 // indexed by symbol bits
	// pam maps a Gray code of B bits to the PAM amplitude; levels holds
	// the sorted amplitudes with their Gray codes for hard decisions.
	pam    []float32
	levels []float32 // amplitude of code g at index g after sorting helper
	grayOf []int     // grayOf[rank] = gray code of rank-th smallest level
	scale  float32   // normalization factor applied to raw odd levels
}

var tables = map[Order]*Table{}

func init() {
	for _, o := range []Order{QPSK, QAM16, QAM64, QAM256} {
		tables[o] = build(o)
	}
}

// Get returns the shared constellation table for an order. Tables are
// immutable after init and safe for concurrent use.
func Get(o Order) *Table {
	t, ok := tables[o]
	if !ok {
		panic(fmt.Sprintf("modulation: unsupported order %d", int(o)))
	}
	return t
}

// binToGray converts a binary index to its Gray code.
func binToGray(b int) int { return b ^ (b >> 1) }

func build(o Order) *Table {
	bPerAxis := int(o) / 2
	l := 1 << bPerAxis // PAM levels per axis
	// Raw amplitudes: odd integers -(l-1) ... (l-1); average symbol energy
	// of the full QAM grid is 2*(l^2-1)/3, so scale = 1/sqrt of that.
	scale := float32(1 / math.Sqrt(2*float64(l*l-1)/3))
	t := &Table{
		Order:  o,
		points: make([]complex64, 1<<int(o)),
		pam:    make([]float32, l),
		grayOf: make([]int, l),
		levels: make([]float32, l),
		scale:  scale,
	}
	// rank r (0..l-1, smallest to largest amplitude) carries Gray code of r.
	for r := 0; r < l; r++ {
		amp := float32(2*r-(l-1)) * scale
		g := binToGray(r)
		t.pam[g] = amp
		t.grayOf[r] = g
		t.levels[r] = amp
	}
	for s := 0; s < len(t.points); s++ {
		iBits := s >> bPerAxis
		qBits := s & (l - 1)
		t.points[s] = complex(t.pam[iBits], t.pam[qBits])
	}
	return t
}

// BitsPerSymbol returns the number of bits one constellation point carries.
func (t *Table) BitsPerSymbol() int { return int(t.Order) }

// Point returns the constellation point for a symbol index.
func (t *Table) Point(sym int) complex64 { return t.points[sym] }

// Modulate maps packed bits (MSB-first within each symbol) to constellation
// points. bits holds one value in {0,1} per entry; len(bits) must be a
// multiple of BitsPerSymbol. Results are written to dst.
func (t *Table) Modulate(dst []complex64, bits []byte) {
	b := t.BitsPerSymbol()
	if len(bits)%b != 0 {
		panic("modulation: bit count not a multiple of bits/symbol")
	}
	n := len(bits) / b
	if len(dst) < n {
		panic("modulation: Modulate dst too small")
	}
	for s := 0; s < n; s++ {
		var sym int
		for k := 0; k < b; k++ {
			sym = sym<<1 | int(bits[s*b+k]&1)
		}
		dst[s] = t.points[sym]
	}
}

// hardPAM returns the Gray code of the nearest PAM level to x.
func (t *Table) hardPAM(x float32) int {
	// Levels are uniformly spaced by 2*scale starting at -(l-1)*scale.
	l := len(t.pam)
	step := 2 * t.scale
	r := int(math.Round(float64((x + float32(l-1)*t.scale) / step)))
	if r < 0 {
		r = 0
	}
	if r >= l {
		r = l - 1
	}
	return t.grayOf[r]
}

// Demodulate makes hard decisions, writing one bit per entry of dst
// (len(dst) >= len(sym)*BitsPerSymbol).
func (t *Table) Demodulate(dst []byte, sym []complex64) {
	b := t.BitsPerSymbol() / 2
	if len(dst) < len(sym)*2*b {
		panic("modulation: Demodulate dst too small")
	}
	for s, v := range sym {
		gi := t.hardPAM(real(v))
		gq := t.hardPAM(imag(v))
		o := s * 2 * b
		for k := 0; k < b; k++ {
			dst[o+k] = byte(gi>>(b-1-k)) & 1
			dst[o+b+k] = byte(gq>>(b-1-k)) & 1
		}
	}
}

// DemodulateSoft computes max-log-MAP LLRs for each bit given the noise
// variance of the effective channel after equalization. Positive LLR means
// bit 0 is more likely (the LDPC decoder uses the same convention). Each
// PAM coordinate computes its ≤16 squared distances once and reuses them
// for every bit. A non-positive noiseVar is clamped to 1e-6.
// len(dst) must be >= len(sym)*BitsPerSymbol.
func (t *Table) DemodulateSoft(dst []float32, sym []complex64, noiseVar float32) {
	b := t.BitsPerSymbol() / 2
	if len(dst) < len(sym)*2*b {
		panic("modulation: DemodulateSoft dst too small")
	}
	if noiseVar <= 0 {
		noiseVar = 1e-6
	}
	inv := 1 / noiseVar
	var d2 [16]float32 // up to 256-QAM: 16 PAM levels per axis
	for s, v := range sym {
		o := s * 2 * b
		t.axisLLR(dst[o:o+b], real(v), inv, &d2)
		t.axisLLR(dst[o+b:o+2*b], imag(v), inv, &d2)
	}
}
