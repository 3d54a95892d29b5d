package ldpc

import "fmt"

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
// concurrent use; Agora gives each worker its own.
type Decoder struct {
	code *Code
	// Alg selects the check-node update rule.
	Alg Alg
	// Offset is the β of offset min-sum (conventional 0.5).
	Offset float32
	// Scale is the α of normalized min-sum (conventional 0.75).
	Scale float32
	// Flooding replaces the default layered (serial-C) schedule with a
	// flooding schedule (flood.go, DESIGN §13): every check of an
	// iteration reads the APP values from the previous full iteration.
	// The Table-4-style ablation behind core's Options.DisableLayeredDecode.
	// On decodable inputs the decoded information bits match the layered
	// schedule's; iteration counts are roughly doubled (the point of the
	// ablation) and LLR trajectories legitimately differ.
	Flooding bool
	l        []float32 // posterior LLR per variable
	lPrev    []float32 // flooding only: APP snapshot at iteration start
	// r holds the check-to-variable messages lane-major: lane j of edge
	// eOff[i]+e is r[(eOff[i]+e)*Z + j], so block-row i's slab starts at
	// eOff[i]*Z.
	r    []float32
	hard []byte   // hard decisions, one per variable plus hardPad
	syn  synTrack // fused incremental syndrome (layered.go)
	// Flat per-edge tables (indexed by eOff[i]+e): the variable-block base
	// column*Z and the cyclic shift, precomputed so the hot loop does one
	// add and one conditional subtract per edge instead of a multiply and
	// two struct field loads.
	eOff     []int
	edgeBase []int
	edgeShf  []int
	// Lane-major scratch (lanes.go): the layer's Q slab (deg×Z, reused as
	// the posterior slab in pass 2) and the per-lane reduction state.
	laneQ    []float32
	laneMin1 []float32
	laneMin2 []float32
	laneIdx  []int32
	laneSgn  []uint32
}

// NewDecoder allocates scratch for code c.
func NewDecoder(c *Code) *Decoder {
	d := &Decoder{code: c, Offset: 0.5, Scale: 0.75}
	nVar := (KbBlocks + c.Mb) * c.Z
	d.l = make([]float32, nVar)
	d.lPrev = make([]float32, nVar)
	d.hard = make([]byte, nVar+hardPad)
	d.syn = newSynTrack(c)
	d.eOff = make([]int, c.Mb+1)
	edges, maxDeg := 0, 0
	for i, row := range c.rows {
		d.eOff[i] = edges
		edges += len(row)
		maxDeg = max(maxDeg, len(row))
	}
	d.eOff[c.Mb] = edges
	d.r = make([]float32, edges*c.Z)
	d.edgeBase = make([]int, edges)
	d.edgeShf = make([]int, edges)
	for i, row := range c.rows {
		for e, en := range row {
			d.edgeBase[d.eOff[i]+e] = en.col * c.Z
			d.edgeShf[d.eOff[i]+e] = en.shift
		}
	}
	d.laneQ = make([]float32, maxDeg*c.Z)
	d.laneMin1 = make([]float32, c.Z)
	d.laneMin2 = make([]float32, c.Z)
	d.laneIdx = make([]int32, c.Z)
	d.laneSgn = make([]uint32, c.Z)
	d.syn.flips = make([]uint64, flipRecords(maxDeg, c.Z))
	return d
}

// hardPad is the slack after the last hard decision: the vector pass 2
// (lanes_amd64.s) compares hard bits eight at a time, so the tail of a
// segment that ends with the last variable block reads — never writes,
// and masks off — up to seven bytes past it.
const hardPad = 8

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
// Both schedules share one prologue: the channel hard decisions are
// taken while the LLRs are loaded and walked once against every parity
// check. A block that already is a codeword returns with 0 iterations —
// a min-sum pass over it would hand every variable messages of its own
// sign and return the same bits (DESIGN §13). Otherwise the default path
// is the lane-major layered schedule with syndrome tracking fused into
// the layer update (layered.go), on the platform's vector layer kernels
// where init found them (kernel.go). Flooding selects the flooding
// schedule (flood.go), which pays a hard-decision pass and — only when a
// bit actually flipped — a CheckSyndrome walk per iteration.
func (d *Decoder) Decode(info []byte, llr []float32, maxIter int) Result {
	c := d.code
	if len(llr) != c.N() {
		panic(fmt.Sprintf("ldpc: Decode llr length %d != N %d", len(llr), c.N()))
	}
	if len(info) != c.K() {
		panic(fmt.Sprintf("ldpc: Decode info length %d != K %d", len(info), c.K()))
	}
	d.loadLLR(llr)
	d.syn.init(c, d.hard)
	if d.syn.nUnsat == 0 {
		copy(info, d.hard[:c.K()])
		return Result{OK: true}
	}
	clear(d.r)
	scl, off := d.magnitudeRule()
	if d.Flooding {
		return d.decodeFlood(info, maxIter, scl, off)
	}
	return d.decodeLayered(info, maxIter, scl, off)
}

// loadLLR copies the channel LLRs into the posterior array and takes the
// initial hard decisions (x < 0, so −0.0 and NaN are bit 0) in the same
// pass over them.
func (d *Decoder) loadLLR(llr []float32) {
	l, hard := d.l[:len(llr)], d.hard[:len(llr)]
	for v, lv := range llr {
		l[v] = lv
		nb := byte(0)
		if lv < 0 {
			nb = 1
		}
		hard[v] = nb
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
