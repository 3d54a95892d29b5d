//go:build amd64 && !purego

package ldpc

import (
	"math/bits"

	"repro/internal/cpu"
)

// AVX2 layer kernels (DESIGN §13): the amd64 implementation of
// iterateLayered's three per-edge loops and of loadLLR's sign pack, eight
// lanes per instruction and with no per-lane data-dependent branch. The
// kernels work on the same unpadded slabs and packed words as the Go
// loops in lanes.go/layered.go — each edge is still walked as its two
// cyclic-shift segments, full vectors over a segment's body and one
// masked load/store group on its tail — so the two implementations are
// interchangeable layer by layer, which is what the differential tests
// in lanes_amd64_test.go exploit.

func init() {
	if cpu.HasAVX2() {
		simdIterate = (*Decoder).iterateLayeredAVX2
		simdLoad = (*Decoder).loadLLRAVX2
	}
}

// layerArgs is the argument block of the assembly kernels, describing
// one check layer. The .s file addresses the fields through the
// go_asm.h offsets the toolchain generates from this declaration. Every
// state pointer it carries (l, hard, r, q, min1, min2, idx, sgn, flips)
// points into an isolated slab, which shares no cache line with another
// allocation (NewDecoder); edgeCol and edgeShf are read-only tables.
type layerArgs struct {
	l       *float32 // posterior array (d.l)
	hard    *uint64  // packed hard decisions (d.hard), read-only to the kernels
	r       *float32 // the layer's message slab, r[e*z+lane]
	q       *float32 // Q slab, q[e*z+lane]
	min1    *float32 // per-lane reduction state, z entries each
	min2    *float32
	idx     *int32
	sgn     *uint32
	edgeCol *int // the layer's deg variable block-columns
	edgeShf *int // and cyclic shifts
	// flips is layerUpdateAVX2's output cursor: for every vector in which
	// a posterior crossed its stored hard decision the kernel appends
	// (first variable index | 8-lane flip mask << 32) and advances the
	// cursor; nflips counts the records.
	flips  *uint64
	nflips int
	deg    int
	z      int
	hw     int // bytes per block-column of hard, 8·blockWords(z)
	scl    float32
	off    float32
}

// layerReduceAVX2 is pass 1 of one layer: it initialises the per-lane
// reduction state and then, per edge, does what laneReduce does on both
// cyclic-shift segments.
//
//go:noescape
func layerReduceAVX2(a *layerArgs)

// layerMagAVX2 turns the per-lane minima into message magnitudes,
// max(min·scl − off, 0) with the multiply and subtract kept separate.
//
//go:noescape
func layerMagAVX2(a *layerArgs)

// layerUpdateAVX2 is pass 2 of one layer: laneUpdateSyn's message and
// posterior arithmetic on both segments of every edge, with the hard-bit
// comparison done eight lanes at a time against eight bits of the packed
// column. It never writes hard or the syndrome; flipped lanes are
// reported through a.flips/a.nflips.
//
//go:noescape
func layerUpdateAVX2(a *layerArgs)

// loadSignsAVX2 is loadLLR for cols block-columns of z values: it copies
// llr to l and writes each block-column's hard decisions (x < 0) as the
// first ⌈z/8⌉ bytes of its hw-byte stride of hard, one byte per eight
// lanes. Bytes past those are not written (they stay 0).
//
//go:noescape
func loadSignsAVX2(l, llr *float32, hard *uint64, cols, z, hw int)

// loadLLRAVX2 is loadLLR on loadSignsAVX2.
func (d *Decoder) loadLLRAVX2(llr []float32) {
	z := d.code.Z
	loadSignsAVX2(&d.l[0], &llr[0], &d.hard[0], len(llr)/z, z, 8*d.syn.w)
}

// flipRecords is the capacity of synTrack.flips for a layer of maxDeg
// edges: each edge is at most z/8 full vectors plus one tail per segment,
// and one spare record keeps the kernel's cursor inside the allocation
// when every vector reports.
func flipRecords(maxDeg, z int) int { return maxDeg*(z/8+2) + 1 }

// iterateLayeredAVX2 is iterateLayered on the assembly kernels. The
// hard-bit flips and syndrome toggles of a layer are applied after its
// pass 2 instead of lane by lane; a layer touches each variable at most
// once (its edges have distinct block-columns) and toggles commute, so
// hard, synd and nUnsat are identical to the Go kernels' after every
// layer.
func (d *Decoder) iterateLayeredAVX2(scl, off float32) {
	a := d.newLayerArgs(scl, off)
	for i := range d.code.rows {
		d.setLayer(&a, i)
		layerReduceAVX2(&a)
		layerMagAVX2(&a)
		layerUpdateAVX2(&a)
		d.applyFlips(a.nflips)
	}
}

// newLayerArgs returns the kernel argument block with the fields that
// are the same for every layer of a decode filled in.
func (d *Decoder) newLayerArgs(scl, off float32) layerArgs {
	return layerArgs{
		l:    &d.l[0],
		hard: &d.hard[0],
		q:    &d.laneQ[0],
		min1: &d.laneMin1[0],
		min2: &d.laneMin2[0],
		idx:  &d.laneIdx[0],
		sgn:  &d.laneSgn[0],
		z:    d.code.Z,
		hw:   8 * d.syn.w,
		scl:  scl,
		off:  off,
	}
}

// setLayer points a at block-row i and rewinds the flip list.
func (d *Decoder) setLayer(a *layerArgs, i int) {
	eo := d.eOff[i]
	a.deg = d.eOff[i+1] - eo
	a.r = &d.r[eo*d.code.Z]
	a.edgeCol = &d.edgeCol[eo]
	a.edgeShf = &d.edgeShf[eo]
	a.flips = &d.syn.flips[0]
	a.nflips = 0
}

// applyFlips commits the first n flip records: each flipped variable's
// hard bit is inverted and its adjacent check parities toggled.
func (d *Decoder) applyFlips(n int) {
	z, w := d.code.Z, d.syn.w
	for _, rec := range d.syn.flips[:n] {
		v0 := int(uint32(rec))
		for m := uint32(rec >> 32); m != 0; m &= m - 1 {
			v := v0 + bits.TrailingZeros32(m)
			col := v / z
			j := v - col*z
			d.hard[col*w+j>>6] ^= 1 << (j & 63)
			d.syn.toggle(col, j)
		}
	}
}
