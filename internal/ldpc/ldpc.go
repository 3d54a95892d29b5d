// Package ldpc implements the forward error correction used by the
// baseband pipeline: a quasi-cyclic LDPC code family with encoding and
// min-sum (offset or normalized) belief-propagation decoding.
//
// Decoder has one serving path — the layered schedule over lane-major
// message slabs with the syndrome tracked incrementally (layered.go),
// run on AVX2 layer kernels where the CPU has them (lanes_amd64.s) and
// on the Go loops they are proven bit-identical against elsewhere — and
// one ablation, the flooding schedule (flood.go). DESIGN §13 describes
// both.
//
// The original Agora uses Intel FlexRAN's implementation of the 3GPP 5G NR
// LDPC code (base graph 1). The 3GPP exponent tables are not reproducible
// here, so this package generates its own base graph with the same
// dimensions and structure class: 22 information block-columns, up to 46
// parity block-rows, circulant lifting (including the paper's Z=104 and
// Z=384), and an accumulator (IRA) parity part that makes encoding a
// linear-time back-substitution — the same property 5G's dual-diagonal
// core provides. Decoding cost scales identically in Z, iteration count
// and code rate, and the BER/BLER-versus-SNR waterfall behaviour matches
// the shapes reported in the paper's Figure 12.
package ldpc

import (
	"fmt"
)

// KbBlocks is the number of information block-columns, matching 5G BG1.
const KbBlocks = 22

// MaxParityBlocks is the maximum number of parity block-rows (5G BG1: 46).
const MaxParityBlocks = 46

// Rate selects how many parity block-rows the code uses.
type Rate int

// Supported code rates. Rate 1/3 is the paper's stress-test configuration;
// 8/9 is its peak-throughput configuration (22/25 = 0.88 ≈ 8/9 here).
const (
	Rate13 Rate = iota // 22/66  (mb = 44)
	Rate23             // 22/33  (mb = 11)
	Rate89             // 22/25  (mb = 3)
)

// ParityBlocks returns the number of parity block-rows for a rate.
func (r Rate) ParityBlocks() int {
	switch r {
	case Rate13:
		return 44
	case Rate23:
		return 11
	case Rate89:
		return 3
	default:
		panic(fmt.Sprintf("ldpc: unknown rate %d", int(r)))
	}
}

// String implements fmt.Stringer.
func (r Rate) String() string {
	switch r {
	case Rate13:
		return "1/3"
	case Rate23:
		return "2/3"
	case Rate89:
		return "8/9"
	default:
		return fmt.Sprintf("Rate(%d)", int(r))
	}
}

// edge is one circulant in the base graph: block-column col with shift s.
type edge struct {
	col   int
	shift int
}

// Code is an instantiated QC-LDPC code for a fixed rate and lifting size.
// A Code is immutable after construction and safe for concurrent use; each
// Decode call takes its own scratch via a Decoder.
type Code struct {
	Z  int // lifting size
	Mb int // parity block-rows in use
	// rows[i] lists the edges of block-row i, information columns first,
	// then the accumulator parity columns (KbBlocks+i-1 and KbBlocks+i).
	rows     [][]edge
	numEdges int // total circulant count, for cost accounting
}

// maxShiftBase bounds the deterministic shift values before reduction
// mod Z, mirroring 5G's table range.
const maxShiftBase = 384

// shiftFor derives a deterministic pseudo-random shift for (row, col)
// using a 64-bit mix, stable across processes and architectures.
func shiftFor(row, col int) int {
	x := uint64(row)*0x9E3779B97F4A7C15 ^ uint64(col)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int(x % maxShiftBase)
}

// infoCols returns the information block-columns row i connects to.
// Structure (mirroring BG1's dense-first-rows shape):
//
//	rows 0,1    : all 22 columns (guarantees full coverage at every rate)
//	rows 2,3    : 10 columns
//	rows 4..    : 4 columns
func infoCols(i int) []int {
	switch {
	case i < 2:
		out := make([]int, KbBlocks)
		for c := range out {
			out[c] = c
		}
		return out
	case i < 4:
		out := make([]int, 10)
		for j := range out {
			out[j] = (i*7 + j*5 + j*j) % KbBlocks
		}
		return dedup(out)
	default:
		out := make([]int, 4)
		for j := range out {
			out[j] = (i*13 + j*7 + i*i%11) % KbBlocks
		}
		return dedup(out)
	}
}

func dedup(cols []int) []int {
	seen := [KbBlocks]bool{}
	out := cols[:0]
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// ValidLifting reports whether Z is accepted (any positive size up to 512;
// the paper uses 104 and 384).
func ValidLifting(z int) bool { return z >= 2 && z <= 512 }

// New constructs the code for a rate and lifting size.
func New(rate Rate, z int) (*Code, error) {
	return NewCustom(rate.ParityBlocks(), z)
}

// NewCustom constructs a code with an explicit number of parity
// block-rows (2..MaxParityBlocks), used by rate-sweep experiments.
func NewCustom(mb, z int) (*Code, error) {
	if !ValidLifting(z) {
		return nil, fmt.Errorf("ldpc: invalid lifting size %d", z)
	}
	if mb < 2 || mb > MaxParityBlocks {
		return nil, fmt.Errorf("ldpc: parity block-rows %d out of range [2,%d]", mb, MaxParityBlocks)
	}
	c := &Code{Z: z, Mb: mb, rows: make([][]edge, mb)}
	for i := 0; i < mb; i++ {
		cols := infoCols(i)
		row := make([]edge, 0, len(cols)+2)
		for _, cc := range cols {
			row = append(row, edge{col: cc, shift: shiftFor(i, cc) % z})
		}
		// Accumulator parity: p_{i-1} then p_i, both shift 0.
		if i > 0 {
			row = append(row, edge{col: KbBlocks + i - 1, shift: 0})
		}
		row = append(row, edge{col: KbBlocks + i, shift: 0})
		c.rows[i] = row
		c.numEdges += len(row)
	}
	return c, nil
}

// MustNew is New that panics on error.
func MustNew(rate Rate, z int) *Code {
	c, err := New(rate, z)
	if err != nil {
		panic(err)
	}
	return c
}

// K returns the number of information bits per code block.
func (c *Code) K() int { return KbBlocks * c.Z }

// N returns the number of transmitted codeword bits.
func (c *Code) N() int { return (KbBlocks + c.Mb) * c.Z }

// NumEdges returns the circulant count, proportional to decode cost/iter.
func (c *Code) NumEdges() int { return c.numEdges }

// RateActual returns the exact code rate K/N.
func (c *Code) RateActual() float64 { return float64(c.K()) / float64(c.N()) }

// Encode computes the codeword for info bits (one bit per byte, values
// 0/1). dst must have length N(); the first K() entries are the
// systematic bits, followed by the parity bits. Encoding is the IRA
// back-substitution: p_i = p_{i-1} XOR syndrome_i, done block-row by
// block-row in O(edges × Z).
func (c *Code) Encode(dst, info []byte) {
	z := c.Z
	if len(info) != c.K() {
		panic(fmt.Sprintf("ldpc: Encode info length %d != K %d", len(info), c.K()))
	}
	if len(dst) != c.N() {
		panic(fmt.Sprintf("ldpc: Encode dst length %d != N %d", len(dst), c.N()))
	}
	copy(dst, info)
	for i := 0; i < c.Mb; i++ {
		pOut := dst[(KbBlocks+i)*z : (KbBlocks+i+1)*z]
		clear(pOut)
		for _, e := range c.rows[i] {
			if e.col == KbBlocks+i {
				continue // the output block itself
			}
			blk := dst[e.col*z : (e.col+1)*z]
			// pOut[r] ^= blk[(r+shift) mod z], as two contiguous segments.
			n := z - e.shift
			xorBytes(pOut[:n], blk[e.shift:])
			xorBytes(pOut[n:], blk[:e.shift])
		}
	}
}

// CheckSyndrome reports whether the hard-decision bits satisfy every
// parity equation.
func (c *Code) CheckSyndrome(bits []byte) bool {
	z := c.Z
	for i := 0; i < c.Mb; i++ {
		for r := 0; r < z; r++ {
			var s byte
			for _, e := range c.rows[i] {
				s ^= bits[e.col*z+(r+e.shift)%z]
			}
			if s != 0 {
				return false
			}
		}
	}
	return true
}
