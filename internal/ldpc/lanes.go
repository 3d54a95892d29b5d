package ldpc

import "math"

// Lane-major layer processing (DESIGN §13): the pass-1 slab reduction
// the layered schedule (layered.go) is built from.
//
// A block-row layer is walked per *edge*, touching all Z lifted checks
// ("lanes") of the layer at once rather than check by check:
//
//   - The cyclic shift becomes two contiguous segment loops instead of Z
//     modular index computations: lane r of an edge with shift s reads
//     variable (r+s) mod Z, so lanes [0, Z-s) map to one contiguous run of
//     the variable block and lanes [Z-s, Z) to the other.
//   - The min1/min2/sign reduction and the message/posterior update run
//     as flat loops over equal-length slices (`q`, `r`, `src` all
//     pre-trimmed to one segment), which lets the compiler eliminate
//     bounds checks and keep the per-lane state in registers.
//   - Check-to-variable messages are stored lane-major, r[edge*Z+lane],
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

// laneReduce processes one contiguous segment of an edge's lanes:
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
