package ldpc

import (
	"math"
	"math/bits"
)

// Layered decoding with fused incremental syndrome (DESIGN §13): the
// decode path.
//
// Check layers are processed serially — each layer's pass 2 writes updated
// APP values in place, so the next layer's pass 1 reads beliefs refreshed
// within the same iteration (the serial-C / turbo-decoding message-passing
// schedule production 5G decoders use, which converges in roughly half
// the iterations of a flooding schedule at equal error rate).
//
// Convergence detection is incremental and exact:
//
//   - At Decode start, hard decisions are packed once from the channel
//     LLRs, one bit per variable, and the per-check parity bits
//     (synTrack.synd, one bit per lifted check, in the same word layout)
//     plus the unsatisfied-check count (nUnsat) are built with one
//     rotate-and-XOR per edge — the only full-code walk the decode ever
//     performs. nUnsat == 0 there ends the decode at iteration 0
//     (decoder.go).
//   - Pass 2 of every layer compares each updated posterior's sign with
//     the stored hard decision. On a flip it toggles the parity of
//     exactly the checks that variable participates in, via the
//     column-major adjacency tables (colOff/colRow/colShf, the transpose
//     of Code.rows), adjusting nUnsat by ±1 per toggle.
//   - End-of-iteration convergence is then the O(1) test nUnsat == 0.
//
// Because the parity state is maintained exactly — not approximated from
// each layer's transient sign products, which later layers may
// invalidate — nUnsat == 0 holds if and only if the hard decisions
// satisfy every parity check, so decoded bits, iteration counts and
// Result equal those of a decoder that walks the full syndrome every
// iteration (TestFusedSyndromeExact pins this against the textbook
// checkSyndrome). The per-flip cost is one branch per updated lane plus
// column-degree parity toggles per actual flip; flips concentrate in the
// first iteration and vanish as the decoder converges.

// synTrack is the fused incremental-syndrome state: the transposed
// adjacency (which checks each variable block-column touches, and with
// which cyclic shift), the per-check parity bits, and the
// unsatisfied-check count.
type synTrack struct {
	// colOff[c]..colOff[c+1] index colRow/colShf with the block-rows
	// containing column c and the circulant shift of that edge.
	colOff []int32
	colRow []int32
	colShf []int32
	// synd holds the current parity of every lifted check under the
	// decoder's hard decisions, packed like Decoder.hard: bit r%64 of
	// word i·w+r/64 is check (i, r), and bits at and past Z are 0.
	// nUnsat counts the set bits.
	synd   []uint64
	nUnsat int
	z      int
	w      int // blockWords(z)
	// flips is the vector pass 2's output list (lanes_amd64.go): the
	// lanes of one layer whose hard decision changed, for toggle to be
	// applied to. Empty where the build has no vector kernels.
	flips []uint64
}

// newSynTrack builds the adjacency tables and parity storage for code c.
func newSynTrack(c *Code) synTrack {
	cols := KbBlocks + c.Mb
	w := blockWords(c.Z)
	s := synTrack{
		colOff: make([]int32, cols+1),
		synd:   isolated[uint64](c.Mb * w),
		z:      c.Z,
		w:      w,
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
// the given hard decisions — the one full-code walk per Decode. Check
// lane r of an edge with shift s reads variable (r+s) mod Z, so each
// edge XORs its column's bits rotated right by s into the row's: one
// rotate of one word per edge where a block fits a word (initWord),
// rotXor's word walk otherwise. Bits past Z collect rotation spill, so
// each row's last word is masked once after its edges.
func (s *synTrack) init(c *Code, hard []uint64) {
	z, w := c.Z, s.w
	if w == 1 {
		s.initWord(c.rows, hard, z)
	} else {
		last := (z - 1) >> 6
		mask := ^uint64(0) >> uint(63-(z-1)&63)
		for i, row := range c.rows {
			out := s.synd[i*w : (i+1)*w]
			clear(out)
			for _, e := range row {
				rotXor(out, hard[e.col*w:(e.col+1)*w], e.shift, z)
			}
			out[last] &= mask
		}
	}
	unsat := 0
	for _, x := range s.synd {
		unsat += bits.OnesCount64(x)
	}
	s.nUnsat = unsat
}

// initWord is init's walk for one word per block (Z ≤ 56). Both shift
// counts lie in [0, 56], so masking them to six bits changes nothing but
// lets the compiler emit bare shifts.
func (s *synTrack) initWord(rows [][]edge, hard []uint64, z int) {
	uz := uint(z)
	mask := uint64(1)<<uz - 1
	synd := s.synd[:len(rows)]
	for i, row := range rows {
		var acc uint64
		for _, e := range row {
			x := hard[e.col]
			sh := uint(e.shift) & 63
			acc ^= x>>sh | x<<((uz-sh)&63)
		}
		synd[i] = acc & mask
	}
}

// rotXor XORs the z-bit block src rotated right by sh into dst's words
// below z: bit r of dst takes bit (r+sh) mod z of src. It relies on src's
// bits at and past z being 0, and leaves garbage past z in dst's last
// word for the caller to mask.
func rotXor(dst, src []uint64, sh, z int) {
	for k := 0; k*64 < z; k++ {
		t := k*64 + sh
		if t >= z {
			t -= z
		}
		// Bits t.. of src, then from bit z−t on the wrap to src's start.
		dst[k] ^= bitsAt(src, t) | src[0]<<uint(z-t)
	}
}

// bitsAt returns the 64 bits of src from bit off on; bits past the end
// of src read as 0.
func bitsAt(src []uint64, off int) uint64 {
	k, b := off>>6, uint(off&63)
	v := src[k] >> b
	if k+1 < len(src) {
		v |= src[k+1] << (64 - b)
	}
	return v
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
		p := int(s.colRow[k])*s.w + r>>6
		old := s.synd[p] >> (r & 63) & 1
		s.synd[p] ^= 1 << (r & 63)
		s.nUnsat += 1 - 2*int(old)
	}
}

// decodeLayered is the default decode loop: the lane-major layered
// kernel with syndrome tracking fused into the layer update. Decode's
// prologue has loaded the posteriors and seeded hard and the syndrome.
func (d *Decoder) decodeLayered(info []byte, maxIter int, scl, off float32) Result {
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
	d.unpackInfo(info)
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

// layerReduce is pass 1 of block-row i: it resets the per-lane
// reduction state, then folds both cyclic-shift segments of every edge,
// read from the live posteriors, into it.
func (d *Decoder) layerReduce(i int) {
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
		base := d.edgeCol[eo+e] * z
		s := d.edgeShf[eo+e]
		qe := d.laneQ[e*z : (e+1)*z]
		re := d.r[(eo+e)*z : (eo+e+1)*z]
		lb := d.l[base : base+z]
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
	w := d.syn.w
	for e := 0; e < deg; e++ {
		col := d.edgeCol[eo+e]
		s := d.edgeShf[eo+e]
		qe := d.laneQ[e*z : (e+1)*z]
		re := d.r[(eo+e)*z : (eo+e+1)*z]
		lb := d.l[col*z : (col+1)*z]
		hb := d.hard[col*w : (col+1)*w]
		n := z - s
		d.laneUpdateSyn(qe[:n], re[:n], lb[s:], hb, sgn[:n], min1[:n], min2[:n], idx[:n], int32(e), col, s)
		d.laneUpdateSyn(qe[n:], re[n:], lb[:s], hb, sgn[n:], min1[n:], min2[n:], idx[n:], int32(e), col, 0)
	}
}

// laneUpdateSyn writes one segment's new check-to-variable messages and
// scatters the posteriors q+nr back into the variable block (dst is the
// rotated destination segment of the posterior array), with fused
// syndrome maintenance: dst[l] is variable (col, j0+l), whose hard
// decision is bit j0+l of the block-column's words hard; when its
// updated posterior crosses the hard-decision threshold the bit and the
// adjacent check parities are toggled. The message sign is applied by
// XOR on the sign bit — bit-identical to a s*mag multiply for s = ±1 and
// the non-negative magnitudes produced by the clamp.
func (d *Decoder) laneUpdateSyn(q, r, dst []float32, hard []uint64, sgn []uint32, m1, m2 []float32, idx []int32, e int32, col, j0 int) {
	if len(q) == 0 {
		return
	}
	r = r[:len(q)]
	dst = dst[:len(q)]
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
		// Hard-decision rule matches the load exactly: x < 0 (so −0.0 and
		// NaN stay bit 0).
		j := j0 + l
		if (x < 0) != (hard[j>>6]>>(j&63)&1 != 0) {
			hard[j>>6] ^= 1 << (j & 63)
			d.syn.toggle(col, j)
		}
	}
}
