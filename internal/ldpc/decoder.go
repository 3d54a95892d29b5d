package ldpc

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"unsafe"
)

// Alg selects the min-sum variant.
type Alg int

// Min-sum variants. OffsetMinSum is the algorithm the paper's FlexRAN
// library implements; NormalizedMinSum is scale-invariant in the input
// LLRs, which makes it the right default inside the pipeline where the
// demodulator's LLR scale is nominal rather than calibrated.
const (
	OffsetMinSum Alg = iota
	NormalizedMinSum
)

// Decoder holds the per-worker scratch for iterative decoding of one Code
// so the hot decode path allocates nothing. A Decoder is not safe for
// concurrent use; Agora gives each worker its own. Every slab a decode
// writes owns its cache lines (isolated): no line of it holds a byte of
// another allocation, so another core writing its own data never
// invalidates a line this decoder's layers are read-modify-writing.
//
// Every float slab is padded to zp = ⌈Z/8⌉·8 lanes per block, so the
// vector kernels run whole vectors; lanes [Z, zp) are junk that no real
// lane ever reads (layered.go).
type Decoder struct {
	code *Code
	// Alg selects the check-node update rule.
	Alg Alg
	// Offset is the β of offset min-sum (conventional 0.5).
	Offset float32
	// Scale is the α of normalized min-sum (conventional 0.75).
	Scale float32
	zp    int
	// l holds the posterior LLRs, zp lanes per block-column: column c is
	// l[c·zp : c·zp+Z], rotated by the shift of the edge that last wrote
	// it (layered.go). Its allocation keeps zp floats of slack before the
	// first column and after the last, which the vector pass 1 reads and
	// never uses.
	l []float32
	// r holds the check-to-variable messages lane-major: lane j of edge
	// eOff[i]+e is r[(eOff[i]+e)·zp + j].
	r []float32
	// hard holds the hard decisions bit-packed in natural order,
	// blockWords(Z) words per block-column: bit j%64 of word c·W+j/64 is
	// variable c·Z+j. Bits at and past Z of a block-column are always 0.
	hard []uint64
	w    int // blockWords(Z)
	// signs is hard's layout holding the decisions of l in its rotated
	// order, packed at the end of every iteration (packHard).
	signs []uint64
	eOff  []int // block-row i's edges are eOff[i]..eOff[i+1]
	// first and steady place every edge in l for the first iteration
	// (every column starts unrotated) and for the later ones (every
	// column starts in sLast's rotation); see layerEdge.
	first, steady []layerEdge
	sLast         []int // per block-column: the shift of its last edge
	// zeros stands in for the message slab in the first iteration's
	// pass 1, when every message is still 0.
	zeros []float32
	// Layer scratch: the Q slab (deg×zp, read back by pass 2) and the
	// per-lane reduction state, zp lanes each.
	laneQ    []float32
	laneMin1 []float32
	laneMin2 []float32
	laneIdx  []int32
	laneSgn  []uint32
}

// NewDecoder allocates scratch for code c and builds its layout tables.
func NewDecoder(c *Code) *Decoder {
	z := c.Z
	zp := (z + 7) &^ 7
	cols := KbBlocks + c.Mb
	w := blockWords(z)
	d := &Decoder{code: c, Offset: 0.5, Scale: 0.75, zp: zp, w: w}
	d.l = isolated[float32]((cols + 2) * zp)[zp : (cols+1)*zp]
	d.hard = isolated[uint64](cols * w)
	d.signs = isolated[uint64](cols * w)
	d.eOff = make([]int, c.Mb+1)
	edges, maxDeg := 0, 0
	for i, row := range c.rows {
		d.eOff[i] = edges
		edges += len(row)
		maxDeg = max(maxDeg, len(row))
	}
	d.eOff[c.Mb] = edges
	d.r = isolated[float32](edges * zp)
	// rot is each column's rotation as the schedule reaches an edge: 0
	// entering the first iteration, after that the shift of the edge that
	// wrote the column last. The first walk fills first and leaves rot at
	// every column's last shift, where the second walk, for steady,
	// starts.
	rot := make([]int, cols)
	for _, tab := range []*[]layerEdge{&d.first, &d.steady} {
		*tab = make([]layerEdge, edges)
		for i, row := range c.rows {
			for e, en := range row {
				dd := (en.shift - rot[en.col] + z) % z
				(*tab)[d.eOff[i]+e] = layerEdge{rd: en.col*zp + dd, wr: en.col * zp, t: z - 1 - dd}
				rot[en.col] = en.shift
			}
		}
	}
	d.sLast = rot
	d.zeros = make([]float32, zp)
	d.laneQ = isolated[float32](maxDeg * zp)
	d.laneMin1 = isolated[float32](zp)
	d.laneMin2 = isolated[float32](zp)
	d.laneIdx = isolated[int32](zp)
	d.laneSgn = isolated[uint32](zp)
	return d
}

// lineBytes is the cache-line size isolated pads for: 64 bytes on x86-64
// and on most arm64 cores.
const lineBytes = 64

// isolated returns n zeroed elements (cap n) starting on a lineBytes
// boundary of a backing array that keeps at least lineBytes of its own
// on each side. Every cache line holding one of the n elements then lies
// inside that array, whatever size class and offset the allocator gives
// it, so no other allocation shares a line with them (DESIGN §13,
// Scratch ownership). Written decoder slabs use it; read-only tables do
// not need it. The reduction state is why: unpadded, a Z=27 lane array
// was 108 bytes, Go's 112-byte size class packs such objects across
// 64-byte lines, and pass 1 writes all four of them on every vector of
// every layer. The alignment is for the vector kernel: a whole-vector
// load or store at a lane multiple of 8 then splits no line; with every
// such access split, a layered iteration took 8–18 % longer.
func isolated[T any](n int) []T {
	size := int(reflect.TypeFor[T]().Size())
	pad := (lineBytes + size - 1) / size
	buf := make([]T, n+3*pad)
	skew := int(uintptr(unsafe.Pointer(&buf[pad]))%lineBytes) / size
	lo := pad + (pad-skew)%pad
	return buf[lo : lo+n : lo+n]
}

// blockWords is the stride W of the packed hard decisions: ⌈Z/64⌉ uint64
// words per block-column, one word for every Z ≤ 64.
func blockWords(z int) int { return (z + 63) / 64 }

// Result summarizes one decode.
type Result struct {
	// Iterations counts the BP iterations actually run. It is 0 when the
	// channel's hard decisions already satisfy every parity check: such a
	// block is decoded (OK) without iterating.
	Iterations int
	OK         bool // parity satisfied (block decoded successfully)
}

// Decode runs layered min-sum BP on channel LLRs (positive => bit 0, one
// per transmitted bit, length N()) for at most maxIter iterations, with
// early termination once the syndrome is satisfied. The decoded
// information bits (one per byte) are written to info, which must have
// length K(). Returns the iteration count and success flag; on failure
// info holds the best-effort hard decisions.
//
// The prologue packs the channel hard decisions while the LLRs are
// loaded and walks the parity checks on the packed words.
// A block that already is a codeword returns with 0 iterations — a
// min-sum pass over it would hand every variable messages of its own
// sign and return the same bits (DESIGN §13). Otherwise it runs the
// layered schedule (layered.go), on the platform's vector layer kernel
// where init found one (kernel.go), and checks the syndrome after every
// iteration.
func (d *Decoder) Decode(info []byte, llr []float32, maxIter int) Result {
	c := d.code
	if len(llr) != c.N() {
		panic(fmt.Sprintf("ldpc: Decode llr length %d != N %d", len(llr), c.N()))
	}
	if len(info) != c.K() {
		panic(fmt.Sprintf("ldpc: Decode info length %d != K %d", len(info), c.K()))
	}
	d.loadLLR(llr)
	if d.satisfied() {
		d.unpackInfo(info)
		return Result{OK: true}
	}
	scl, off := d.magnitudeRule()
	return d.decodeLayered(info, maxIter, scl, off)
}

// loadLLR copies the channel LLRs into the posterior slab, unrotated,
// and packs the initial hard decisions (x < 0, so −0.0 and NaN are bit
// 0) in the same pass over them, on the platform's vector kernel where
// init found one (kernel.go).
func (d *Decoder) loadLLR(llr []float32) {
	if simdLoad != nil {
		simdLoad(d, llr)
		return
	}
	z, zp, w := d.code.Z, d.zp, d.w
	for c := 0; c < len(llr)/z; c++ {
		x := llr[c*z : (c+1)*z]
		copy(d.l[c*zp:], x)
		packSigns(d.hard[c*w:(c+1)*w], x)
	}
}

// packSigns stores the hard decisions of one block's values x into its
// words. Words past the last one x reaches are left alone (they stay 0).
func packSigns(words []uint64, x []float32) {
	for k := 0; k*64 < len(x); k++ {
		words[k] = signWord(x[k*64 : min(k*64+64, len(x))])
	}
}

// signWord returns bit k set where x[k] < 0, for up to 64 values. The
// test is branch-free on the float bits — the sign of a noisy LLR is a
// coin flip — and x < 0 exactly when the bits lie in [0x80000001,
// 0xff800000], −0.0 through −Inf: −0.0 and every NaN give 0.
func signWord(x []float32) uint64 {
	var w uint64
	for k, v := range x {
		w |= (uint64(math.Float32bits(v)-0x80000001) - 0x7f800000) >> 63 << k
	}
	return w
}

// byteSpread[b] holds bit k of b in byte k, so one lookup unpacks eight
// hard decisions into Decode's one-bit-per-byte output.
var byteSpread = func() (t [256]uint64) {
	for b := range t {
		for k := 0; k < 8; k++ {
			t[b] |= uint64(b>>k&1) << (8 * k)
		}
	}
	return t
}()

// unpackInfo writes the hard decisions of the information block-columns
// to info, one bit per byte.
func (d *Decoder) unpackInfo(info []byte) {
	z, w := d.code.Z, d.w
	for c := 0; c < KbBlocks; c++ {
		col := d.hard[c*w : (c+1)*w]
		out := info[c*z : (c+1)*z]
		j := 0
		for ; j+8 <= z; j += 8 {
			binary.LittleEndian.PutUint64(out[j:], byteSpread[byte(col[j>>6]>>(j&63))])
		}
		for ; j < z; j++ {
			out[j] = byte(col[j>>6] >> (j & 63) & 1)
		}
	}
}

// magnitudeRule folds the variant into one magnitude rule,
// m = max(min*scl − off, 0), hoisting the Alg branch out of the per-lane
// hot path: offset min-sum is scl=1, off=β; normalized min-sum is scl=α,
// off=0 (min is non-negative, so its clamp never fires).
func (d *Decoder) magnitudeRule() (scl, off float32) {
	if d.Alg == NormalizedMinSum {
		return d.Scale, 0
	}
	return 1, d.Offset
}

// BitsToBytes packs bits (one per byte, MSB first) into bytes; the final
// partial byte, if any, is zero-padded. Used at the MAC boundary.
func BitsToBytes(dst []byte, bits []byte) {
	n := (len(bits) + 7) / 8
	if len(dst) < n {
		panic("ldpc: BitsToBytes dst too small")
	}
	for i := 0; i < n; i++ {
		var b byte
		for k := 0; k < 8; k++ {
			idx := i*8 + k
			b <<= 1
			if idx < len(bits) {
				b |= bits[idx] & 1
			}
		}
		dst[i] = b
	}
}

// BytesToBits unpacks bytes into one-bit-per-byte form (MSB first),
// writing exactly len(dst) bits.
func BytesToBits(dst []byte, src []byte) {
	for i := range dst {
		dst[i] = (src[i/8] >> (7 - i%8)) & 1
	}
}
