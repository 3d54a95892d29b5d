package ldpc

import "math"

// Flooding-schedule decoding (DESIGN §13): the Table-4 ablation partner
// of the layered default, selected by Decoder.Flooding
// (core.Options.DisableLayeredDecode).
//
// Under flooding, every check node of an iteration sees the variable
// beliefs from the *previous* full iteration: pass 1 reads a snapshot of
// the APP array taken at iteration start (lPrev), and pass 2 accumulates
// each check's message delta into the live APP array,
//
//	APP_new[v] = APP_prev[v] + Σ_c (r_new[c→v] − r_old[c→v]),
//
// so no check benefits from another's update until the next iteration.
// The layered schedule propagates updated APP values within the same
// iteration and is well known to converge in roughly half the iterations
// at equal error rate — the gap BenchmarkDecode_Layered/_Flooding and the
// `cmd/bench -iters` table measure. Both schedules are fixed points of
// the same min-sum update, and on the decodable inputs of
// TestLayeredVsFloodingBits they agree on the decoded information bits
// even though their LLR trajectories and iteration counts legitimately
// differ. Min-sum is not maximum-likelihood, though: on a heavily
// corrupted word the two can converge to different codewords, so
// FuzzLayeredVsFlooding checks only that each success is a codeword and
// that a codeword input decodes the same under both.
//
// Flooding detects convergence with a hard-decision pass plus a
// CheckSyndrome walk per iteration, but skips the walk when no hard
// decision flipped since the last one: an unchanged bit vector cannot
// newly satisfy the parity equations, so the skip is
// behaviour-preserving.

// decodeFlood is the flooding decode loop. The hard-decision pass notes
// flips against the previous iteration's decisions; the syndrome walk
// runs only when at least one bit flipped since the walk that most
// recently ran. Decode's prologue has loaded the posteriors and already
// walked the channel decisions (they are not a codeword), so iteration 1
// looks for flips against them.
func (d *Decoder) decodeFlood(info []byte, maxIter int, scl, off float32) Result {
	c := d.code
	res := Result{}
	flipped := false
	for it := 1; it <= maxIter; it++ {
		res.Iterations = it
		copy(d.lPrev, d.l)
		d.iterateFlood(scl, off)
		for v, lv := range d.l {
			nb := byte(0)
			if lv < 0 {
				nb = 1
			}
			if nb != d.hard[v] {
				d.hard[v] = nb
				flipped = true
			}
		}
		if flipped {
			flipped = false
			if c.CheckSyndrome(d.hard) {
				res.OK = true
				break
			}
		}
	}
	copy(info, d.hard[:c.K()])
	return res
}

// iterateFlood runs one flooding iteration over the lane-major slabs:
// pass 1 and the magnitudes are the layered schedule's, read from the
// iteration-start APP snapshot, and pass 2 adds message deltas to the
// live APP array instead of rebuilding posteriors layer-serially.
func (d *Decoder) iterateFlood(scl, off float32) {
	z := d.code.Z
	min1 := d.laneMin1[:z]
	min2 := d.laneMin2[:z]
	idx := d.laneIdx[:z]
	sgn := d.laneSgn[:z]
	for i := range d.code.rows {
		d.layerReduceFrom(i, d.lPrev)
		d.layerMag(scl, off)
		eo := d.eOff[i]
		deg := d.eOff[i+1] - eo
		for e := 0; e < deg; e++ {
			base := d.edgeBase[eo+e]
			s := d.edgeShf[eo+e]
			qe := d.laneQ[e*z : (e+1)*z]
			re := d.r[(eo+e)*z : (eo+e+1)*z]
			lb := d.l[base : base+z]
			n := z - s
			laneUpdateFlood(qe[:n], re[:n], lb[s:], sgn[:n], min1[:n], min2[:n], idx[:n], int32(e))
			laneUpdateFlood(qe[n:], re[n:], lb[:s], sgn[n:], min1[n:], min2[n:], idx[n:], int32(e))
		}
	}
}

// laneUpdateFlood writes one segment's new messages and accumulates the
// message delta into the live APP array (dst). q was computed against the
// iteration-start snapshot, so q + nr − lPrev[v] is exactly nr − r_old.
func laneUpdateFlood(q, r, dst []float32, sgn []uint32, m1, m2 []float32, idx []int32, e int32) {
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
		old := r[l]
		r[l] = nr
		dst[l] += nr - old
	}
}
