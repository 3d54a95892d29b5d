// Package cf provides complex-float utilities shared across the baseband:
// 24-bit fronthaul IQ packing, int16 <-> float32 sample conversion, and
// small helpers over []complex64 used by the signal-processing blocks.
//
// The paper converts 24-bit IQ samples from the RRU into 32-bit values with
// AVX-512; Go has no intrinsics, so the hot conversion paths here are
// written branch-free over contiguous slices with 64-bit word packing,
// which the compiler vectorizes reasonably well.
package cf

import (
	"fmt"
	"math"
)

// BytesPerIQ is the wire size of one 24-bit IQ sample: 12-bit I and 12-bit Q
// packed into three bytes, little-endian within the 24-bit word.
const BytesPerIQ = 3

// Magic-number float conversion (the classic 1.5·2^23 trick): for any
// integer m with |m| < 2^22, float32(m) + magicF32 has the bit pattern
// magicBits + m, so adding the constant rounds a float to the nearest
// integer (ties to even, straight from the FPU's rounding mode) and the
// integer drops out of the mantissa with one subtraction — no Round call,
// no cvt instruction on the quantize side.
const (
	magicF32  = 12582912.0 // 1.5 * 2^23
	magicBits = 0x4B400000 // math.Float32bits(magicF32)
	// iq12Bias recenters the XOR-biased 12-bit field (i+2048 in [0,4096))
	// back to a signed value after the mantissa extraction.
	iq12Bias = magicF32 + 2048.0
)

// dequant12 converts a raw 12-bit two's-complement field (low 12 bits of
// x) to its float32 value via the magic-number route: XOR 0x800 biases it
// to [0, 4096), OR-ing into the magic mantissa makes the float
// magicF32 + (i + 2048), and subtracting iq12Bias leaves exactly
// float32(i). Branch-free and exact (12-bit ints are exact in float32).
func dequant12(x uint32) float32 {
	return math.Float32frombits(magicBits|((x&0xFFF)^0x800)) - iq12Bias
}

// quant12 rounds a float32 to the nearest integer (ties to even) and
// clamps it to the signed 12-bit range, for every float32: the clamp
// comes first, in float, so the magic-number addition only ever sees
// [-2048, 2047], far inside the trick's ±2^22 domain. NaN maps to 2047
// whatever its sign (it fails v < 2047). This is the rule the vector TX
// kernel implements with VMINPS/VMAXPS (internal/fft, StoreIQ12).
func quant12(v float32) int32 {
	if !(v < 2047) {
		v = 2047
	}
	if v < -2048 {
		v = -2048
	}
	return int32(math.Float32bits(v+magicF32)) - magicBits
}

// clampI32 clamps v to [lo, hi] branch-free: min/max via the sign bit of
// the difference (d & d>>31 is d when negative, else 0).
func clampI32(v, lo, hi int32) int32 {
	d := v - hi
	v = hi + (d & (d >> 31)) // min(v, hi)
	d = v - lo
	v = lo + (d &^ (d >> 31)) // max(v, lo)
	return v
}

// PackIQ12 packs int16 I/Q pairs (each clamped to the signed 12-bit range)
// into the 3-byte wire format. len(dst) must be >= len(iq)/2*3 and len(iq)
// must be even (interleaved I,Q).
func PackIQ12(dst []byte, iq []int16) {
	if len(iq)%2 != 0 {
		panic("cf: PackIQ12 needs interleaved I,Q pairs")
	}
	n := len(iq) / 2
	if len(dst) < n*BytesPerIQ {
		panic(fmt.Sprintf("cf: PackIQ12 dst too small: %d < %d", len(dst), n*BytesPerIQ))
	}
	for s := 0; s < n; s++ {
		i := clamp12(iq[2*s])
		q := clamp12(iq[2*s+1])
		w := uint32(i)&0xFFF | (uint32(q)&0xFFF)<<12
		o := s * BytesPerIQ
		dst[o] = byte(w)
		dst[o+1] = byte(w >> 8)
		dst[o+2] = byte(w >> 16)
	}
}

// clamp12 clamps to the signed 12-bit range, branch-free.
func clamp12(v int16) int16 {
	return int16(clampI32(int32(v), -2048, 2047))
}

// UnpackIQ12 expands the 3-byte wire format into complex64 samples scaled
// to [-1, 1). It is the hot RX-path conversion: one 24-bit word is loaded
// per sample and both components convert through the branch-free
// magic-number route (bit-identical to the sign-extend + cvt sequence,
// since 12-bit integers are exact in float32).
func UnpackIQ12(dst []complex64, src []byte) {
	n := len(src) / BytesPerIQ
	if len(dst) < n {
		panic(fmt.Sprintf("cf: UnpackIQ12 dst too small: %d < %d", len(dst), n))
	}
	const scale = 1.0 / 2048.0
	for s := 0; s < n; s++ {
		o := s * BytesPerIQ
		w := uint32(src[o]) | uint32(src[o+1])<<8 | uint32(src[o+2])<<16
		dst[s] = complex(dequant12(w)*scale, dequant12(w>>12)*scale)
	}
}

// IQ12At returns sample idx of a 24-bit IQ wire buffer as a complex64
// scaled to [-1, 1) — the random-access counterpart of UnpackIQ12,
// bit-identical per sample. The FFT's fused front end uses it to gather
// samples straight into digit-reversed order.
func IQ12At(src []byte, idx int) complex64 {
	o := idx * BytesPerIQ
	w := uint32(src[o]) | uint32(src[o+1])<<8 | uint32(src[o+2])<<16
	const scale = 1.0 / 2048.0
	return complex(dequant12(w)*scale, dequant12(w>>12)*scale)
}

// Quantize12 converts float32-domain complex samples (nominally in [-1,1))
// into interleaved int16 I/Q with 12-bit clipping, the TX-side inverse of
// UnpackIQ12. Each component is ×2048, then quant12: round to even and
// clamp to [-2048, 2047] for every float32 input (NaN gives 2047).
func Quantize12(dst []int16, src []complex64) {
	if len(dst) < 2*len(src) {
		panic("cf: Quantize12 dst too small")
	}
	for s, v := range src {
		dst[2*s] = int16(quant12(real(v) * 2048))
		dst[2*s+1] = int16(quant12(imag(v) * 2048))
	}
}

// QuantizeIQ12 writes src×gain to dst in the 3-byte wire format: one
// fused pass, bit-identical to Scale(gain), Quantize12 and PackIQ12 in
// turn (each component is ×gain, then ×2048, as two float32 roundings).
// len(dst) must be >= len(src)*BytesPerIQ. It is the reference and the
// tail of the vector TX kernel behind fft.StoreIQ12.
func QuantizeIQ12(dst []byte, src []complex64, gain float32) {
	n := len(src) * BytesPerIQ
	if len(dst) < n {
		panic(fmt.Sprintf("cf: QuantizeIQ12 dst too small: %d < %d", len(dst), n))
	}
	dst = dst[:n]
	for s, v := range src {
		i := quant12(real(v) * gain * 2048)
		q := quant12(imag(v) * gain * 2048)
		w := uint32(i)&0xFFF | (uint32(q)&0xFFF)<<12
		o := dst[s*BytesPerIQ : s*BytesPerIQ+BytesPerIQ]
		o[0] = byte(w)
		o[1] = byte(w >> 8)
		o[2] = byte(w >> 16)
	}
}

// Scale multiplies every element of x by a in place.
func Scale(x []complex64, a float32) {
	for i := range x {
		x[i] = complex(real(x[i])*a, imag(x[i])*a)
	}
}

// AXPY computes y += a*x element-wise. Slices must have equal length.
func AXPY(y []complex64, a complex64, x []complex64) {
	if len(y) != len(x) {
		panic("cf: AXPY length mismatch")
	}
	for i := range y {
		y[i] += a * x[i]
	}
}

// Energy returns sum(|x[i]|^2) in float64 for accumulation accuracy.
func Energy(x []complex64) float64 {
	var e float64
	for _, v := range x {
		e += float64(real(v))*float64(real(v)) + float64(imag(v))*float64(imag(v))
	}
	return e
}

// MaxAbsDiff returns the largest |x[i]-y[i]|, a convergence/accuracy metric
// used heavily in tests.
func MaxAbsDiff(x, y []complex64) float64 {
	if len(x) != len(y) {
		panic("cf: MaxAbsDiff length mismatch")
	}
	var m float64
	for i := range x {
		d := x[i] - y[i]
		a := math.Hypot(float64(real(d)), float64(imag(d)))
		if a > m {
			m = a
		}
	}
	return m
}

// Conj conjugates x in place.
func Conj(x []complex64) {
	for i := range x {
		x[i] = complex(real(x[i]), -imag(x[i]))
	}
}

// Fill sets every element of x to v.
func Fill(x []complex64, v complex64) {
	for i := range x {
		x[i] = v
	}
}
