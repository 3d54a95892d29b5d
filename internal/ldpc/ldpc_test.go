package ldpc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randInfo(rng *rand.Rand, k int) []byte {
	b := make([]byte, k)
	for i := range b {
		b[i] = byte(rng.Intn(2))
	}
	return b
}

func TestRateDimensions(t *testing.T) {
	cases := []struct {
		rate Rate
		z    int
		k, n int
	}{
		{Rate13, 104, 2288, 6864}, // the paper's code block size
		{Rate13, 384, 8448, 25344},
		{Rate23, 104, 2288, 3432},
		{Rate89, 104, 2288, 2600},
	}
	for _, c := range cases {
		code := MustNew(c.rate, c.z)
		if code.K() != c.k || code.N() != c.n {
			t.Errorf("rate %v Z=%d: K=%d N=%d, want %d/%d", c.rate, c.z, code.K(), code.N(), c.k, c.n)
		}
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	if _, err := NewCustom(44, 1); err == nil {
		t.Error("Z=1 accepted")
	}
	if _, err := NewCustom(44, 1024); err == nil {
		t.Error("Z=1024 accepted")
	}
	if _, err := NewCustom(1, 104); err == nil {
		t.Error("mb=1 accepted")
	}
	if _, err := NewCustom(47, 104); err == nil {
		t.Error("mb=47 accepted")
	}
}

func TestEncodeProducesValidCodeword(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, rate := range []Rate{Rate13, Rate23, Rate89} {
		for _, z := range []int{8, 104} {
			code := MustNew(rate, z)
			info := randInfo(rng, code.K())
			cw := make([]byte, code.N())
			code.Encode(cw, info)
			if !code.CheckSyndrome(cw) {
				t.Errorf("rate %v Z=%d: encoder output fails parity check", rate, z)
			}
			for i := range info {
				if cw[i] != info[i] {
					t.Fatalf("not systematic at bit %d", i)
				}
			}
		}
	}
}

func TestEncodeLinear(t *testing.T) {
	// Property: encode(a XOR b) == encode(a) XOR encode(b).
	code := MustNew(Rate23, 16)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randInfo(rng, code.K())
		b := randInfo(rng, code.K())
		ab := make([]byte, code.K())
		for i := range ab {
			ab[i] = a[i] ^ b[i]
		}
		ca := make([]byte, code.N())
		cb := make([]byte, code.N())
		cab := make([]byte, code.N())
		code.Encode(ca, a)
		code.Encode(cb, b)
		code.Encode(cab, ab)
		for i := range cab {
			if cab[i] != ca[i]^cb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAllInfoColumnsProtected(t *testing.T) {
	// Every information block-column must appear in at least one row even
	// at the highest rate, or those bits would be uncorrectable.
	for _, rate := range []Rate{Rate13, Rate23, Rate89} {
		code := MustNew(rate, 8)
		covered := map[int]bool{}
		for _, row := range code.rows {
			for _, e := range row {
				covered[e.col] = true
			}
		}
		for c := 0; c < KbBlocks; c++ {
			if !covered[c] {
				t.Errorf("rate %v: info column %d unprotected", rate, c)
			}
		}
	}
}

func cleanLLR(cw []byte, mag float32) []float32 {
	llr := make([]float32, len(cw))
	for i, b := range cw {
		if b == 0 {
			llr[i] = mag
		} else {
			llr[i] = -mag
		}
	}
	return llr
}

func TestDecodeNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, rate := range []Rate{Rate13, Rate23, Rate89} {
		code := MustNew(rate, 104)
		dec := NewDecoder(code)
		info := randInfo(rng, code.K())
		cw := make([]byte, code.N())
		code.Encode(cw, info)
		out := make([]byte, code.K())
		// A clean codeword is decoded by Decode's syndrome prologue alone.
		res := dec.Decode(out, cleanLLR(cw, 10), 5)
		if !res.OK || res.Iterations != 0 {
			t.Errorf("rate %v: noiseless decode res=%+v", rate, res)
		}
		for i := range info {
			if out[i] != info[i] {
				t.Fatalf("rate %v: bit %d wrong", rate, i)
			}
		}
	}
}

func TestDecodeCorrectsErasuresAndFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	code := MustNew(Rate13, 104)
	dec := NewDecoder(code)
	info := randInfo(rng, code.K())
	cw := make([]byte, code.N())
	code.Encode(cw, info)
	llr := cleanLLR(cw, 8)
	// Flip 2% of the bits hard and erase another 3%.
	n := code.N()
	for i := 0; i < n/50; i++ {
		p := rng.Intn(n)
		llr[p] = -llr[p]
	}
	for i := 0; i < 3*n/100; i++ {
		llr[rng.Intn(n)] = 0
	}
	out := make([]byte, code.K())
	res := dec.Decode(out, llr, 20)
	if !res.OK {
		t.Fatalf("decode failed after %d iterations", res.Iterations)
	}
	for i := range info {
		if out[i] != info[i] {
			t.Fatalf("bit %d wrong after correction", i)
		}
	}
}

func TestDecodeReportsFailure(t *testing.T) {
	// Pure garbage LLRs must not be reported as a successful decode
	// (overwhelmingly likely; seed fixed for determinism).
	rng := rand.New(rand.NewSource(4))
	code := MustNew(Rate13, 32)
	dec := NewDecoder(code)
	llr := make([]float32, code.N())
	for i := range llr {
		llr[i] = float32(rng.NormFloat64())
	}
	out := make([]byte, code.K())
	res := dec.Decode(out, llr, 3)
	if res.OK {
		t.Fatal("garbage decoded 'successfully'")
	}
	if res.Iterations != 3 {
		t.Fatalf("expected to exhaust iterations, ran %d", res.Iterations)
	}
}

func TestDecoderReuse(t *testing.T) {
	// A decoder must be reusable across blocks with no state leakage.
	decodeAfterGarbage(t, NewDecoder(MustNew(Rate23, 64)), rand.New(rand.NewSource(5)), 5)
}

func TestBitsBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		bits := make([]byte, len(data)*8)
		BytesToBits(bits, data)
		back := make([]byte, len(data))
		BitsToBytes(back, bits)
		for i := range data {
			if back[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsToBytesPartial(t *testing.T) {
	bits := []byte{1, 0, 1} // pads to 10100000
	dst := make([]byte, 1)
	BitsToBytes(dst, bits)
	if dst[0] != 0xA0 {
		t.Fatalf("got %#x want 0xA0", dst[0])
	}
}

func TestEdgeCountScalesWithRate(t *testing.T) {
	e13 := MustNew(Rate13, 104).NumEdges()
	e23 := MustNew(Rate23, 104).NumEdges()
	e89 := MustNew(Rate89, 104).NumEdges()
	if !(e13 > e23 && e23 > e89) {
		t.Fatalf("edge counts not ordered: %d %d %d", e13, e23, e89)
	}
}

func BenchmarkEncodeR13Z104(b *testing.B) {
	code := MustNew(Rate13, 104)
	info := randInfo(rand.New(rand.NewSource(1)), code.K())
	cw := make([]byte, code.N())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		code.Encode(cw, info)
	}
}

func benchDecode(b *testing.B, rate Rate, z, iters int) {
	rng := rand.New(rand.NewSource(1))
	code := MustNew(rate, z)
	dec := NewDecoder(code)
	info := randInfo(rng, code.K())
	cw := make([]byte, code.N())
	code.Encode(cw, info)
	llr := cleanLLR(cw, 4)
	// Perturb so decoding does real work but still succeeds.
	for i := range llr {
		llr[i] += float32(rng.NormFloat64())
	}
	out := make([]byte, code.K())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode(out, llr, iters)
	}
}

func BenchmarkDecodeR13Z104Iter5(b *testing.B)  { benchDecode(b, Rate13, 104, 5) }
func BenchmarkDecodeR13Z384Iter5(b *testing.B)  { benchDecode(b, Rate13, 384, 5) }
func BenchmarkDecodeR13Z104Iter10(b *testing.B) { benchDecode(b, Rate13, 104, 10) }
func BenchmarkDecodeR89Z104Iter5(b *testing.B)  { benchDecode(b, Rate89, 104, 5) }
