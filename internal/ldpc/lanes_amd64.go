//go:build amd64 && !purego

package ldpc

import "repro/internal/cpu"

// AVX2 kernels (DESIGN §13): the amd64 implementation of
// iterateLayered's layer, of loadLLR's copy and sign pack and of
// packHard's sign pack, eight lanes per instruction and with no per-lane
// data-dependent branch. They work on the same padded slabs and packed
// words as the Go loops in lanes.go/layered.go and agree with them on
// every lane below Z, so the two implementations are interchangeable
// layer by layer, which is what the differential tests in
// lanes_amd64_test.go exploit.

func init() {
	if cpu.HasAVX2() {
		simdIterate = (*Decoder).iterateLayeredAVX2
		simdLoad = (*Decoder).loadLLRAVX2
		simdSigns = (*Decoder).packSignsAVX2
	}
}

// layerArgs is the argument block of layerAVX2, describing one check
// layer. The .s file addresses the fields through the go_asm.h offsets
// the toolchain generates from this declaration. Every pointer it
// carries that the kernel writes (l, r, q, min1, min2, idx, sgn) points
// into an isolated slab, which shares no cache line with another
// allocation (NewDecoder); edges and a first iteration's rin are
// read-only.
type layerArgs struct {
	l     *float32   // column 0 of the posterior slab (d.l)
	edges *layerEdge // the layer's deg edges
	rin   *float32   // pass 1's messages: r, or zeros in the first iteration
	rs    int        // rin's bytes per edge: 4·zp, or 0 for zeros
	r     *float32   // the layer's message slab, r[e*zp+lane]
	q     *float32   // Q slab, q[e*zp+lane]
	min1  *float32   // per-lane reduction state, zp entries each
	min2  *float32
	idx   *int32
	sgn   *uint32
	deg   int
	z     int
	zp    int
	scl   float32
	off   float32
}

// layerAVX2 is layer for one block-row on lanes [0, zp): pass 1 over
// every vector of eight lanes, the reduction state held in registers
// across the layer's edges and stored once with the magnitude rule
// applied, then pass 2 over every vector. Lanes [z, zp) compute junk
// from junk; no lane below z reads one of them.
//
//go:noescape
func layerAVX2(a *layerArgs)

// loadSignsAVX2 is loadLLR for cols block-columns of z values: it copies
// llr to l, zp floats per column (lanes past z get +0.0), and writes each
// block-column's hard decisions (x < 0) as the first ⌈z/8⌉ bytes of its
// hw-byte stride of hard, one byte per eight lanes. Bytes past those are
// not written (they stay 0).
//
//go:noescape
func loadSignsAVX2(l, llr *float32, hard *uint64, cols, z, zp, hw int)

// signsAVX2 is packHard's sign pack: for cols block-columns of l, zp
// floats apart, it writes the decisions (x < 0) of lanes [0, zp) as the
// first zp/8 bytes of the column's hw-byte stride of signs, the last
// byte ANDed with tail to clear the lanes past z.
//
//go:noescape
func signsAVX2(l *float32, signs *uint64, cols, zp, hw, tail int)

// loadLLRAVX2 is loadLLR on loadSignsAVX2.
func (d *Decoder) loadLLRAVX2(llr []float32) {
	z := d.code.Z
	loadSignsAVX2(&d.l[0], &llr[0], &d.hard[0], len(llr)/z, z, d.zp, 8*d.w)
}

// packSignsAVX2 is packHard's sign pack on signsAVX2.
func (d *Decoder) packSignsAVX2() {
	signsAVX2(&d.l[0], &d.signs[0], len(d.sLast), d.zp, 8*d.w, 0xff>>(d.zp-d.code.Z))
}

// iterateLayeredAVX2 is iterateLayered on layerAVX2, one call per layer.
func (d *Decoder) iterateLayeredAVX2(first bool, scl, off float32) {
	a := d.newLayerArgs(scl, off)
	for i := range d.code.rows {
		d.setLayer(&a, i, first)
		layerAVX2(&a)
	}
}

// newLayerArgs returns the kernel argument block with the fields that
// are the same for every layer of a decode filled in.
func (d *Decoder) newLayerArgs(scl, off float32) layerArgs {
	return layerArgs{
		l:    &d.l[0],
		q:    &d.laneQ[0],
		min1: &d.laneMin1[0],
		min2: &d.laneMin2[0],
		idx:  &d.laneIdx[0],
		sgn:  &d.laneSgn[0],
		z:    d.code.Z,
		zp:   d.zp,
		scl:  scl,
		off:  off,
	}
}

// setLayer points a at block-row i of the first iteration or a later one.
func (d *Decoder) setLayer(a *layerArgs, i int, first bool) {
	edges := d.layerEdges(i, first)
	a.edges = &edges[0]
	a.deg = len(edges)
	a.r = &d.r[d.eOff[i]*d.zp]
	a.rin, a.rs = a.r, 4*d.zp
	if first {
		a.rin, a.rs = &d.zeros[0], 0
	}
}
