package ldpc

import "math"

// Lane-major layer processing (DESIGN §13): the per-edge loops the Go
// layer (layered.go) is built from.
//
// A block-row layer is walked per *edge*, touching all Z lifted checks
// ("lanes") of the layer at once rather than check by check:
//
//   - Pass 1 reads an edge's column through its differential shift δ as
//     two contiguous segments instead of Z modular index computations:
//     lanes [0, Z−δ) read slots [δ, Z) and lanes [Z−δ, Z) slots [0, δ).
//     Pass 2 writes lane r to slot r, one aligned run.
//   - The min1/min2/sign reduction and the message/posterior update run
//     as flat loops over equal-length slices, which lets the compiler
//     eliminate bounds checks and keep the per-lane state in registers.
//   - Check-to-variable messages are stored lane-major, r[edge*zp+lane],
//     so both passes stream r sequentially.
//
// Signs are tracked via IEEE sign-bit XOR rather than `< 0` comparisons;
// the two agree everywhere except on the sign of zero-valued messages (and
// NaN inputs), which never changes a comparison, a hard decision, or any
// nonzero value — see laneReduce.

// laneSignMask is the IEEE-754 float32 sign bit.
const laneSignMask = 1 << 31

// laneInitLLR is the min1/min2 initializer (the assembly keeps a copy,
// pinned by TestLaneInitConstant).
const laneInitLLR = 3.4e38

// laneReduce is pass 1 over one contiguous segment of an edge's lanes:
// q = src − r, accumulating the sign product and the two smallest
// magnitudes (with the arg-min edge) per lane. All slices share one
// length; the explicit re-slicing below tells the compiler so, which
// eliminates the bounds checks inside the loop.
//
// The sign product accumulates raw IEEE sign bits where a textbook
// min-sum tests `q < 0`; they differ only when q is −0.0 (or NaN). A −0.0
// q makes min1 zero, so every other edge's magnitude is zero and the
// flipped product can only change signs of zeros; for the arg-min edge
// itself the flip cancels against this edge's own sign bit in pass 2.
// Decoded bits, iteration counts and syndrome results therefore match the
// textbook rule (TestLaneDecodeEquivalence).
func laneReduce(q, r, src []float32, sgn []uint32, min1, min2 []float32, idx []int32, e int32) {
	if len(q) == 0 {
		return
	}
	r = r[:len(q)]
	src = src[:len(q)]
	sgn = sgn[:len(q)]
	min1 = min1[:len(q)]
	min2 = min2[:len(q)]
	idx = idx[:len(q)]
	for l := range q {
		v := src[l] - r[l]
		q[l] = v
		b := math.Float32bits(v)
		sgn[l] ^= b & laneSignMask
		a := math.Float32frombits(b &^ laneSignMask)
		if a < min1[l] {
			min2[l] = min1[l]
			min1[l] = a
			idx[l] = e
		} else if a < min2[l] {
			min2[l] = a
		}
	}
}

// laneUpdate is pass 2 over one edge's lanes: it writes the new
// check-to-variable messages to r and the posteriors q + r to dst, the
// edge's own lanes of its column. The message sign is applied by XOR on
// the sign bit — bit-identical to a s*mag multiply for s = ±1 and the
// non-negative magnitudes produced by the clamp.
func laneUpdate(q, r, dst []float32, sgn []uint32, m1, m2 []float32, idx []int32, e int32) {
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
		dst[l] = v + nr
	}
}
