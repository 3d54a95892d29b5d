package cf

import (
	"math"
	"math/rand"
	"testing"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	iq := make([]int16, 2*1200)
	for i := range iq {
		iq[i] = int16(rng.Intn(4096) - 2048)
	}
	wire := make([]byte, len(iq)/2*BytesPerIQ)
	PackIQ12(wire, iq)
	out := make([]complex64, len(iq)/2)
	UnpackIQ12(out, wire)
	for s := 0; s < len(out); s++ {
		wantI := float32(iq[2*s]) / 2048
		wantQ := float32(iq[2*s+1]) / 2048
		if real(out[s]) != wantI || imag(out[s]) != wantQ {
			t.Fatalf("sample %d: got %v want (%v,%v)", s, out[s], wantI, wantQ)
		}
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := make([]complex64, 512)
	for i := range src {
		src[i] = complex(rng.Float32()*2-1, rng.Float32()*2-1)
	}
	iq := make([]int16, 2*len(src))
	Quantize12(iq, src)
	wire := make([]byte, len(src)*BytesPerIQ)
	PackIQ12(wire, iq)
	back := make([]complex64, len(src))
	UnpackIQ12(back, wire)
	// 12-bit quantization: error bounded by one LSB = 1/2048 per component.
	for i := range src {
		if d := MaxAbsDiff(src[i:i+1], back[i:i+1]); d > 1.5/2048 {
			t.Fatalf("sample %d: quantization error %v too large (%v vs %v)", i, d, src[i], back[i])
		}
	}
}

func TestQuantizeClips(t *testing.T) {
	src := []complex64{complex(10, -10)}
	iq := make([]int16, 2)
	Quantize12(iq, src)
	if iq[0] != 2047 || iq[1] != -2048 {
		t.Fatalf("clipping failed: %v", iq)
	}
}

// sext12 sign-extends a 12-bit value held in the low bits of x: the
// plain-integer oracle dequant12 is checked against.
func sext12(x uint32) int32 {
	return int32(x<<20) >> 20
}

func TestSext12(t *testing.T) {
	cases := map[uint32]int32{0: 0, 1: 1, 0x7FF: 2047, 0x800: -2048, 0xFFF: -1}
	for in, want := range cases {
		if got := sext12(in); got != want {
			t.Errorf("sext12(%#x) = %d, want %d", in, got, want)
		}
	}
}

func TestDequant12MatchesSext(t *testing.T) {
	// The magic-number dequant must be bit-identical to sign-extend + cvt
	// for every 12-bit pattern, regardless of garbage in the high bits.
	for raw := uint32(0); raw < 0x1000; raw++ {
		for _, x := range []uint32{raw, raw | 0xFFFFF000, raw | 0xABCDE000} {
			got := dequant12(x)
			want := float32(sext12(x))
			if got != want {
				t.Fatalf("dequant12(%#x) = %v, want %v", x, got, want)
			}
		}
	}
}

func TestQuant12MatchesRoundToEven(t *testing.T) {
	// The magic-number quantizer must reproduce the old
	// clamp(math.RoundToEven(v)) path exactly: every representable
	// half-integer in range (the tie cases), a fine sweep, and random
	// floats including out-of-range values that must clamp.
	check := func(v float32) {
		if got, want := quant12(v), quant12Ref(v); got != want {
			t.Fatalf("quant12(%v) = %d, want %d", v, got, want)
		}
	}
	for i := -4100; i <= 4100; i++ {
		check(float32(i) / 2)       // all half-integers incl. ties
		check(float32(i)/2 + 0.3)   // off-tie offsets
		check(float32(i)/2 - 0.251) // negative side
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		check((rng.Float32()*2 - 1) * 5000)
	}
	check(0)
	check(-2048.5)
	check(2046.5)
}

func TestClampI32(t *testing.T) {
	cases := []struct{ v, lo, hi, want int32 }{
		{0, -2048, 2047, 0},
		{-5000, -2048, 2047, -2048},
		{5000, -2048, 2047, 2047},
		{-2048, -2048, 2047, -2048},
		{2047, -2048, 2047, 2047},
		{-2049, -2048, 2047, -2048},
		{2048, -2048, 2047, 2047},
		{7, 0, 10, 7},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
	}
	for _, c := range cases {
		if got := clampI32(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("clampI32(%d,%d,%d) = %d, want %d", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestIQ12AtMatchesUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	wire := make([]byte, 3*513)
	rng.Read(wire)
	dst := make([]complex64, 513)
	UnpackIQ12(dst, wire)
	for i := range dst {
		if got := IQ12At(wire, i); got != dst[i] {
			t.Fatalf("IQ12At(%d) = %v, UnpackIQ12 gives %v", i, got, dst[i])
		}
	}
}

// quant12Ref is quant12's definition: round to even in float64, clamp to
// the signed 12-bit range, and 2047 for a NaN of either sign.
func quant12Ref(v float32) int32 {
	if v != v {
		return 2047
	}
	r := math.RoundToEven(float64(v))
	if r > 2047 {
		return 2047
	}
	if r < -2048 {
		return -2048
	}
	return int32(r)
}

// TestQuantize12Total checks quant12 against quant12Ref on every float32
// whose magnitude lies in [2040, 2^26] — the clamp boundaries and the
// stretch around -1.5·2^23 where adding the magic number used to cancel —
// and on ±0, subnormals, ±MaxFloat32, ±Inf and NaNs of both signs.
func TestQuantize12Total(t *testing.T) {
	check := func(v float32) {
		if got, want := quant12(v), quant12Ref(v); got != want {
			t.Fatalf("quant12(%v = %#08x) = %d, want %d", v, math.Float32bits(v), got, want)
		}
	}
	lo, hi := math.Float32bits(2040), math.Float32bits(1<<26)
	for b := lo; b <= hi; b++ {
		check(math.Float32frombits(b))
		check(math.Float32frombits(b | 1<<31))
	}
	for _, b := range []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // subnormals
		0x7f7fffff, 0xff7fffff, // ±MaxFloat32
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7f800001, 0xffa12345, // NaNs of both signs
	} {
		check(math.Float32frombits(b))
	}
}

func TestQuantizeDequantizeExactAtCodePoints(t *testing.T) {
	// Samples sitting exactly on 12-bit code points must round-trip
	// bit-exactly through quantize -> pack -> unpack.
	n := 4095
	src := make([]complex64, n)
	for i := 0; i < n; i++ {
		v := float32(i-2047) / 2048
		src[i] = complex(v, -v)
	}
	iq := make([]int16, 2*n)
	Quantize12(iq, src)
	wire := make([]byte, n*BytesPerIQ)
	PackIQ12(wire, iq)
	back := make([]complex64, n)
	UnpackIQ12(back, wire)
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("code point %d: %v -> %v", i, src[i], back[i])
		}
	}
}

func TestAXPYAndScale(t *testing.T) {
	y := []complex64{1, 2, 3}
	x := []complex64{1, 1, 1}
	AXPY(y, 2i, x)
	want := []complex64{1 + 2i, 2 + 2i, 3 + 2i}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("AXPY: got %v want %v", y, want)
		}
	}
	Scale(y, 2)
	if y[0] != 2+4i {
		t.Fatalf("Scale: got %v", y[0])
	}
}

func TestConjFillMax(t *testing.T) {
	x := []complex64{1 + 2i, -3 - 4i}
	Conj(x)
	if x[0] != 1-2i || x[1] != -3+4i {
		t.Fatalf("Conj: %v", x)
	}
	Fill(x, 5)
	if x[0] != 5 || x[1] != 5 {
		t.Fatalf("Fill: %v", x)
	}
	if MaxAbsDiff(x, x) != 0 {
		t.Fatal("MaxAbsDiff self nonzero")
	}
}

func BenchmarkUnpackIQ12(b *testing.B) {
	wire := make([]byte, 3*2048)
	dst := make([]complex64, 2048)
	b.SetBytes(int64(len(wire)))
	for i := 0; i < b.N; i++ {
		UnpackIQ12(dst, wire)
	}
}

func BenchmarkQuantize12(b *testing.B) {
	src := make([]complex64, 2048)
	for i := range src {
		src[i] = complex(float32(i%97)/97-0.5, float32(i%89)/89-0.5)
	}
	dst := make([]int16, 2*len(src))
	b.SetBytes(int64(len(src) * 8))
	for i := 0; i < b.N; i++ {
		Quantize12(dst, src)
	}
}
