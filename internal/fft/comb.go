package fft

import "fmt"

// CorrelateComb is the channel estimator's correlation, the pilot
// symbol's step after its forward transform: one comb correlation per
// ZF group. x is cut into groups of group samples (the last may be
// shorter) and each group has k accumulators of its own: sample i of
// group g, x[g·group+i], adds x[g·group+i]·p[g·group+i] to acc[g·k + i
// mod k], each accumulator's terms in ascending i. With p the conjugated
// pilot comb of k frequency-orthogonal users, accumulator j of a group is
// the correlation of the user whose tones start at the group's sample j;
// with k = 1 it is the group's full-band correlation. Each product is
// Go's complex64 multiply (float64 arithmetic, one rounding per part)
// and each sum a float32 add, on either kernel. k and group must be
// positive, p must hold at least len(x) values and acc k per group.
func CorrelateComb(acc, x, p []complex64, k, group int) {
	if k < 1 || group < 1 || len(p) < len(x) || len(acc) < (len(x)+group-1)/group*k {
		panic(fmt.Sprintf("fft: CorrelateComb of %d samples in groups of %d, %d accumulators per group, into %d with %d pilot values",
			len(x), group, k, len(acc), len(p)))
	}
	if len(x) == 0 {
		return
	}
	p = p[:len(x)]
	if simd != nil {
		simd.correlateComb(acc, x, p, k, group)
		return
	}
	correlateComb(acc, x, p, k, group)
}

// correlateComb is the portable CorrelateComb and the reference of its
// vector kernel: group by group, one row of k samples at a time.
func correlateComb(acc, x, p []complex64, k, group int) {
	for len(x) > 0 {
		n := min(group, len(x))
		combGroup(acc[:k], x[:n], p[:n])
		acc, x, p = acc[k:], x[n:], p[n:]
	}
}

// combGroup is one group of correlateComb: x[i]·p[i] into
// acc[i mod len(acc)].
func combGroup(acc, x, p []complex64) {
	k := len(acc)
	for len(x) > 0 {
		n := min(k, len(x))
		xs, ps := x[:n], p[:n]
		for j, v := range xs {
			acc[j] += mul64(v, ps[j])
		}
		x, p = x[n:], p[n:]
	}
}

// mul64 is x·y as Go computes a complex64 product: both parts in float64,
// each rounded once to float32. The float64 product of two float32s is
// exact, so the explicit conversions only pin what a fused multiply-add
// would compute anyway; the AVX2 kernel's VMULPD, VADDSUBPD and VCVTPD2PS
// give the same bits.
func mul64(x, y complex64) complex64 {
	xr, xi := float64(real(x)), float64(imag(x))
	yr, yi := float64(real(y)), float64(imag(y))
	return complex(float32(float64(xr*yr)-float64(xi*yi)), float32(float64(xr*yi)+float64(xi*yr)))
}
