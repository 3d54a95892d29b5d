package ldpc

import (
	"encoding/binary"
	"math"
)

// Layered decoding with fused incremental syndrome (DESIGN §13): the
// default decode path.
//
// Check layers are processed serially — each layer's pass 2 writes updated
// APP values in place, so the next layer's pass 1 reads beliefs refreshed
// within the same iteration (the serial-C / turbo-decoding message-passing
// schedule production 5G decoders use, which converges in roughly half
// the iterations of a flooding schedule at equal error rate; flood.go
// keeps flooding as the measurable ablation).
//
// Convergence detection is incremental and exact:
//
//   - At Decode start, hard decisions are taken once from the channel
//     LLRs and the per-check parity bits (synTrack.synd, one byte per
//     lifted check) plus the unsatisfied-check count (nUnsat) are built
//     with one segment-streamed walk — the only full-code walk the
//     decode ever performs. nUnsat == 0 there ends the decode at
//     iteration 0 (decoder.go).
//   - Pass 2 of every layer compares each updated posterior's sign with
//     the stored hard decision. On a flip it toggles the parity of
//     exactly the checks that variable participates in, via the
//     column-major adjacency tables (colOff/colRow/colShf, the transpose
//     of Code.rows), adjusting nUnsat by ±1 per toggle.
//   - End-of-iteration convergence is then the O(1) test nUnsat == 0.
//
// Because the parity state is maintained exactly — not approximated from
// each layer's transient sign products, which later layers may
// invalidate — nUnsat == 0 holds if and only if CheckSyndrome(hard)
// would report success, so decoded bits, iteration counts and Result
// equal those of a decoder that walks the full syndrome every iteration
// (TestFusedSyndromeExact pins this). The per-flip cost is one
// branch per updated lane plus column-degree parity toggles per actual
// flip; flips concentrate in the first iteration and vanish as the
// decoder converges.

// synTrack is the fused incremental-syndrome state: the transposed adjacency (which checks each variable
// block-column touches, and with which cyclic shift), the per-check
// parity bits, and the unsatisfied-check count.
type synTrack struct {
	// colOff[c]..colOff[c+1] index colRow/colShf with the block-rows
	// containing column c and the circulant shift of that edge.
	colOff []int32
	colRow []int32
	colShf []int32
	// synd[i*Z+r] is the current parity of lifted check (i, r) under the
	// decoder's hard-decision bits; nUnsat counts the nonzero entries.
	synd   []byte
	nUnsat int
	z      int
	// flips is the vector pass 2's output list (lanes_amd64.go): the
	// lanes of one layer whose hard decision changed, for toggle to be
	// applied to. Empty where the build has no vector kernels.
	flips []uint64
}

// xorBytes XORs src into dst (equal lengths) eight bytes per step: the
// circulant-segment accumulate shared by synTrack.init and Code.Encode.
func xorBytes(dst, src []byte) {
	src = src[:len(dst)]
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < len(dst); i++ {
		dst[i] ^= src[i]
	}
}

// newSynTrack builds the adjacency tables and parity storage for code c.
func newSynTrack(c *Code) synTrack {
	cols := KbBlocks + c.Mb
	s := synTrack{
		colOff: make([]int32, cols+1),
		synd:   make([]byte, c.Mb*c.Z),
		z:      c.Z,
	}
	cnt := make([]int32, cols)
	for _, row := range c.rows {
		for _, e := range row {
			cnt[e.col]++
		}
	}
	for ci, n := range cnt {
		s.colOff[ci+1] = s.colOff[ci] + n
	}
	total := s.colOff[cols]
	s.colRow = make([]int32, total)
	s.colShf = make([]int32, total)
	fill := make([]int32, cols)
	for i, row := range c.rows {
		for _, e := range row {
			k := s.colOff[e.col] + fill[e.col]
			s.colRow[k] = int32(i)
			s.colShf[k] = int32(e.shift)
			fill[e.col]++
		}
	}
	return s
}

// init rebuilds the parity bits and unsatisfied count from scratch for
// the given hard decisions — the one full-code walk per Decode. Unlike
// CheckSyndrome it streams each circulant as two contiguous segments
// instead of a modular index per edge.
func (s *synTrack) init(c *Code, hard []byte) {
	z := c.Z
	unsat := 0
	for i := 0; i < c.Mb; i++ {
		out := s.synd[i*z : (i+1)*z]
		clear(out)
		for _, e := range c.rows[i] {
			blk := hard[e.col*z : (e.col+1)*z]
			n := z - e.shift
			xorBytes(out[:n], blk[e.shift:])
			xorBytes(out[n:], blk[:e.shift])
		}
		// Parities are 0/1, so the unsatisfied count is their sum — no
		// branch on what is a coin flip per check on a noisy block.
		for _, v := range out {
			unsat += int(v)
		}
	}
	s.nUnsat = unsat
}

// toggle flips the parity of every check adjacent to variable (col, j):
// an edge of column col with shift sh touches variable j in check lane
// (j − sh) mod Z of its block-row.
func (s *synTrack) toggle(col, j int) {
	for k := s.colOff[col]; k < s.colOff[col+1]; k++ {
		r := j - int(s.colShf[k])
		if r < 0 {
			r += s.z
		}
		p := int(s.colRow[k])*s.z + r
		if s.synd[p] == 0 {
			s.synd[p] = 1
			s.nUnsat++
		} else {
			s.synd[p] = 0
			s.nUnsat--
		}
	}
}

// decodeLayered is the default decode loop: the lane-major layered
// kernel with syndrome tracking fused into the layer update. Decode's
// prologue has loaded the posteriors and seeded hard and the syndrome.
func (d *Decoder) decodeLayered(info []byte, maxIter int, scl, off float32) Result {
	c := d.code
	iterate := simdIterate
	if iterate == nil {
		iterate = (*Decoder).iterateLayered
	}
	res := Result{}
	for it := 1; it <= maxIter; it++ {
		res.Iterations = it
		iterate(d, scl, off)
		if d.syn.nUnsat == 0 {
			res.OK = true
			break
		}
	}
	copy(info, d.hard[:c.K()])
	return res
}

// iterateLayered runs one layered iteration: per block-row, the min-sum
// message/posterior update plus flip detection against the hard
// decisions and incremental parity maintenance. Each layer runs as the
// three steps the vector kernels (lanes_amd64.go) implement one for one.
func (d *Decoder) iterateLayered(scl, off float32) {
	for i := range d.code.rows {
		d.layerReduce(i)
		d.layerMag(scl, off)
		d.layerUpdateSyn(i)
	}
}

// layerReduce is pass 1 of block-row i over the live posteriors.
func (d *Decoder) layerReduce(i int) { d.layerReduceFrom(i, d.l) }

// layerReduceFrom resets the per-lane reduction state, then folds both
// cyclic-shift segments of every edge of block-row i, read from the APP
// array src, into it.
func (d *Decoder) layerReduceFrom(i int, src []float32) {
	z := d.code.Z
	eo := d.eOff[i]
	deg := d.eOff[i+1] - eo
	min1 := d.laneMin1[:z]
	min2 := d.laneMin2[:z]
	idx := d.laneIdx[:z]
	sgn := d.laneSgn[:z]
	for l := range min1 {
		min1[l] = laneInitLLR
		min2[l] = laneInitLLR
		idx[l] = -1
	}
	clear(sgn)
	for e := 0; e < deg; e++ {
		base := d.edgeBase[eo+e]
		s := d.edgeShf[eo+e]
		qe := d.laneQ[e*z : (e+1)*z]
		re := d.r[(eo+e)*z : (eo+e+1)*z]
		lb := src[base : base+z]
		n := z - s
		laneReduce(qe[:n], re[:n], lb[s:], sgn[:n], min1[:n], min2[:n], idx[:n], int32(e))
		laneReduce(qe[n:], re[n:], lb[:s], sgn[n:], min1[n:], min2[n:], idx[n:], int32(e))
	}
}

// layerMag turns the per-lane minima into message magnitudes in place,
// m = max(min*scl − off, 0).
func (d *Decoder) layerMag(scl, off float32) {
	min1 := d.laneMin1
	min2 := d.laneMin2[:len(min1)]
	for l, m := range min1 {
		m = m*scl - off
		if m < 0 {
			m = 0
		}
		min1[l] = m
		m2 := min2[l]*scl - off
		if m2 < 0 {
			m2 = 0
		}
		min2[l] = m2
	}
}

// layerUpdateSyn is pass 2 of block-row i over both segments of every
// edge.
func (d *Decoder) layerUpdateSyn(i int) {
	z := d.code.Z
	eo := d.eOff[i]
	deg := d.eOff[i+1] - eo
	min1 := d.laneMin1[:z]
	min2 := d.laneMin2[:z]
	idx := d.laneIdx[:z]
	sgn := d.laneSgn[:z]
	for e := 0; e < deg; e++ {
		base := d.edgeBase[eo+e]
		s := d.edgeShf[eo+e]
		col := base / z
		qe := d.laneQ[e*z : (e+1)*z]
		re := d.r[(eo+e)*z : (eo+e+1)*z]
		lb := d.l[base : base+z]
		hb := d.hard[base : base+z]
		n := z - s
		d.laneUpdateSyn(qe[:n], re[:n], lb[s:], hb[s:], sgn[:n], min1[:n], min2[:n], idx[:n], int32(e), col, s)
		d.laneUpdateSyn(qe[n:], re[n:], lb[:s], hb[:s], sgn[n:], min1[n:], min2[n:], idx[n:], int32(e), col, 0)
	}
}

// laneUpdateSyn writes one segment's new check-to-variable messages and
// scatters the posteriors q+nr back into the variable block (dst is the
// rotated destination segment of the posterior array), with fused
// syndrome maintenance: dst[l] is variable (col, j0+l); when its updated
// posterior crosses the hard-decision threshold the adjacent check
// parities are toggled. The message sign is applied by XOR on the sign
// bit — bit-identical to a s*mag multiply for s = ±1 and the non-negative
// magnitudes produced by the clamp.
func (d *Decoder) laneUpdateSyn(q, r, dst []float32, hard []byte, sgn []uint32, m1, m2 []float32, idx []int32, e int32, col, j0 int) {
	if len(q) == 0 {
		return
	}
	r = r[:len(q)]
	dst = dst[:len(q)]
	hard = hard[:len(q)]
	sgn = sgn[:len(q)]
	m1 = m1[:len(q)]
	m2 = m2[:len(q)]
	idx = idx[:len(q)]
	for l := range q {
		v := q[l]
		mag := m1[l]
		if idx[l] == e {
			mag = m2[l]
		}
		nr := math.Float32frombits(math.Float32bits(mag) ^ ((sgn[l] ^ math.Float32bits(v)) & laneSignMask))
		r[l] = nr
		x := v + nr
		dst[l] = x
		// Hard-decision rule matches the flooding walk exactly: x < 0 (so
		// −0.0 and NaN stay bit 0).
		nb := byte(0)
		if x < 0 {
			nb = 1
		}
		if nb != hard[l] {
			hard[l] = nb
			d.syn.toggle(col, j0+l)
		}
	}
}
