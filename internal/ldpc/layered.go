package ldpc

// Layered decoding (DESIGN §13): the decode path.
//
// Check layers are processed serially — each layer's pass 2 writes updated
// APP values in place, so the next layer's pass 1 reads beliefs refreshed
// within the same iteration (the serial-C / turbo-decoding message-passing
// schedule production 5G decoders use, which converges in roughly half
// the iterations of a flooding schedule at equal error rate).
//
// Differential shifts. Lane r of an edge with shift s is check r of its
// block-row and reads variable (r+s) mod Z of its block-column. The
// posterior slab does not keep a column in natural order: pass 2 writes
// lane r's posterior back to lane r, so after an edge the column sits in
// that edge's rotation (slot j holds variable (j+s) mod Z). The next edge
// on the same column, with shift s', then reads slot (r+δ) mod Z,
// δ = (s' − s) mod Z — the differential shift layered hardware decoders
// apply between consecutive accesses of one posterior block, so that
// each block is only ever cyclically shifted by the difference. The
// previous edge of a column's first edge is the column's last edge of
// the iteration before (sLast), or, in the first iteration, the
// unrotated load; NewDecoder resolves both into the static tables first
// and steady.
//
// Convergence. After every iteration packHard takes the hard decisions
// x < 0 of every posterior and rotates each column's word back by sLast
// to natural order, and satisfied walks the parity checks on the packed
// words until one fails. The hard decisions are a function of the
// posteriors alone, so the test is exact: decoded bits, iteration counts
// and Result equal those of a decoder that walks a byte-wise syndrome
// every iteration (TestFusedSyndromeExact pins this against the textbook
// checkSyndrome).

// layerEdge places one edge in the posterior slab, in floats from the
// start of column 0: lanes r ≤ t read l[rd+r], lanes r > t wrap to
// l[rd+r−Z], and pass 2 writes lane r to l[wr+r]. With δ the edge's
// differential shift and c its block-column, rd = c·zp + δ, wr = c·zp and
// t = Z − δ − 1. The vector kernel reads this struct through go_asm.h.
type layerEdge struct {
	rd int
	wr int
	t  int
}

// satisfied reports whether the hard decisions satisfy every parity
// check, block-row by block-row, and stops at the first row that has an
// unsatisfied check. Check lane r of an edge with shift s reads variable
// (r+s) mod Z, so a row's parities are the XOR of its columns' words
// rotated right by their shifts: one rotate of one word per edge where a
// block fits a word, rotWord per word otherwise. Bits past Z collect
// rotation spill and are masked off.
func (d *Decoder) satisfied() bool {
	c, hard := d.code, d.hard
	z, w := c.Z, d.w
	if w == 1 {
		// Both shift counts lie in [0, 64]; masking them to six bits
		// turns the one count of 64 (shift 0 at Z = 64) into a rotate by
		// 0 and lets the compiler emit bare shifts.
		uz := uint(z)
		mask := uint64(1)<<uz - 1
		for _, row := range c.rows {
			var acc uint64
			for _, e := range row {
				x := hard[e.col]
				sh := uint(e.shift) & 63
				acc ^= x>>sh | x<<((uz-sh)&63)
			}
			if acc&mask != 0 {
				return false
			}
		}
		return true
	}
	last := (z - 1) >> 6
	lastMask := ^uint64(0) >> uint(63-(z-1)&63)
	for _, row := range c.rows {
		for k := 0; k <= last; k++ {
			var acc uint64
			for _, e := range row {
				acc ^= rotWord(hard[e.col*w:(e.col+1)*w], e.shift, z, k)
			}
			if k == last {
				acc &= lastMask
			}
			if acc != 0 {
				return false
			}
		}
	}
	return true
}

// rotWord returns word k of the z-bit block src rotated right by sh: bit
// b of the result is bit (64k+b+sh) mod z of src. It relies on src's bits
// at and past z being 0, and a word that reaches past z holds garbage
// there.
func rotWord(src []uint64, sh, z, k int) uint64 {
	t := k*64 + sh
	if t >= z {
		t -= z
	}
	// Bits t.. of src, then from bit z−t on the wrap to src's start.
	return bitsAt(src, t) | src[0]<<uint(z-t)
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

// decodeLayered is the decode loop after the prologue, which has loaded
// the posteriors unrotated and found the channel decisions not to be a
// codeword.
func (d *Decoder) decodeLayered(info []byte, maxIter int, scl, off float32) Result {
	iterate := simdIterate
	if iterate == nil {
		iterate = (*Decoder).iterateLayered
	}
	res := Result{}
	for it := 1; it <= maxIter; it++ {
		res.Iterations = it
		iterate(d, it == 1, scl, off)
		d.packHard()
		if d.satisfied() {
			res.OK = true
			break
		}
	}
	d.unpackInfo(info)
	return res
}

// iterateLayered runs one layered iteration on the Go loops: every
// block-row in turn.
func (d *Decoder) iterateLayered(first bool, scl, off float32) {
	for i := range d.code.rows {
		d.layer(i, first, scl, off)
	}
}

// layerEdges returns the table that places block-row i's edges in the
// first iteration or in a later one.
func (d *Decoder) layerEdges(i int, first bool) []layerEdge {
	if first {
		return d.first[d.eOff[i]:d.eOff[i+1]]
	}
	return d.steady[d.eOff[i]:d.eOff[i+1]]
}

// layer is block-row i on the Go loops, the reference the vector kernel
// is proven against: pass 1 folds every edge's q = l − r, read through
// its differential shift, into the per-lane reduction state; the
// magnitude rule turns the minima into message magnitudes; pass 2 writes
// every edge's new messages and posteriors back to the edge's own lanes.
// It reads and writes only lanes [0, Z). The first iteration's pass 1
// reads zeros in place of the message slab, which the previous block
// left behind.
func (d *Decoder) layer(i int, first bool, scl, off float32) {
	z, zp := d.code.Z, d.zp
	edges := d.layerEdges(i, first)
	r := d.r[d.eOff[i]*zp:]
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
	for e, ed := range edges {
		col := d.l[ed.wr : ed.wr+z]
		qe := d.laneQ[e*zp : e*zp+z]
		re := r[e*zp : e*zp+z]
		if first {
			re = d.zeros[:z]
		}
		// Lanes [0, n) read slots [δ, Z), lanes [n, Z) slots [0, δ).
		n := ed.t + 1
		laneReduce(qe[:n], re[:n], col[z-n:], sgn[:n], min1[:n], min2[:n], idx[:n], int32(e))
		laneReduce(qe[n:], re[n:], col[:z-n], sgn[n:], min1[n:], min2[n:], idx[n:], int32(e))
	}
	for l := range min1 {
		min1[l] = magnitude(min1[l], scl, off)
		min2[l] = magnitude(min2[l], scl, off)
	}
	for e, ed := range edges {
		laneUpdate(d.laneQ[e*zp:e*zp+z], r[e*zp:e*zp+z], d.l[ed.wr:ed.wr+z], sgn, min1, min2, idx, int32(e))
	}
}

// magnitude is the magnitude rule, max(m·scl − off, 0), with the clamp
// leaving −0.0 and NaN alone.
func magnitude(m, scl, off float32) float32 {
	m = m*scl - off
	if m < 0 {
		m = 0
	}
	return m
}

// packHard sets hard to the decisions x < 0 of the posteriors at the end
// of an iteration: it packs each column's signs in its rotated order into
// signs, on the platform's vector kernel where init found one, and
// rotates each column's bits left by its sLast shift into place.
func (d *Decoder) packHard() {
	z, zp, w := d.code.Z, d.zp, d.w
	if simdSigns != nil {
		simdSigns(d)
	} else {
		for c := range d.sLast {
			packSigns(d.signs[c*w:(c+1)*w], d.l[c*zp:c*zp+z])
		}
	}
	if w == 1 {
		uz := uint(z)
		mask := uint64(1)<<uz - 1
		hard := d.hard[:len(d.sLast)]
		signs := d.signs[:len(d.sLast)]
		for c, s := range d.sLast {
			x, us := signs[c], uint(s)&63
			hard[c] = (x<<us | x>>((uz-us)&63)) & mask
		}
		return
	}
	last := (z - 1) >> 6
	mask := ^uint64(0) >> uint(63-(z-1)&63)
	for c, s := range d.sLast {
		src := d.signs[c*w : (c+1)*w]
		out := d.hard[c*w : (c+1)*w]
		for k := range out {
			out[k] = rotWord(src, (z-s)%z, z, k)
		}
		out[last] &= mask
	}
}
