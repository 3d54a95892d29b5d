package ldpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzBitsBytesRoundTrip checks BitsToBytes/BytesToBits are inverses on
// arbitrary bit counts and that the final partial byte is zero-padded,
// the contract the MAC boundary relies on when framing transport blocks.
func FuzzBitsBytesRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 0, 0, 1, 1}, uint16(9))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1}, uint16(1))
	f.Add([]byte{0xFF, 0x02, 0x80}, uint16(17))
	f.Fuzz(func(t *testing.T, data []byte, nbits uint16) {
		n := int(nbits) % (len(data) + 1)
		bits := make([]byte, n)
		for i := range bits {
			bits[i] = data[i] & 1
		}
		packed := make([]byte, (n+7)/8)
		BitsToBytes(packed, bits)
		if rem := n % 8; rem != 0 {
			if tail := packed[len(packed)-1] & (0xFF >> rem); tail != 0 {
				t.Fatalf("n=%d: padding bits not zero: last byte %08b", n, packed[len(packed)-1])
			}
		}
		back := make([]byte, n)
		BytesToBits(back, packed)
		for i := range bits {
			if back[i] != bits[i] {
				t.Fatalf("n=%d: bit %d: got %d want %d", n, i, back[i], bits[i])
			}
		}
	})
}

// FuzzLayeredVsFlooding is the differential target for the two
// message-passing schedules: a random codeword is perturbed with
// fuzz-chosen noise, then decoded under both the layered default and the
// flooding ablation. Every reported success must be the codeword of its
// own information bits: re-encoding them reproduces the decoder's hard
// decisions, so a success on a word whose syndrome is not actually zero —
// the fused incremental syndrome drifting from the true parity state, the
// bug class this hunts — fails here. Min-sum is not maximum-likelihood:
// two converged schedules may land on different codewords, one of them
// the transmitted one (the two "0XX…" seeds are such words). So the
// schedules are held to agree only where agreement is guaranteed: a
// channel word that already is a codeword stops both in the shared
// syndrome prologue, at 0 iterations with the same bits. Iteration counts
// and failures may otherwise differ freely.
func FuzzLayeredVsFlooding(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{0x80, 0x10, 0xFF, 0x7F}, int64(7))
	f.Add([]byte{0xFF, 0xFF, 0xFF}, int64(42))
	f.Add([]byte("0XXxcxaxXbAA"), int64(-79))
	f.Add([]byte("0XXXcAXxAaxX"), int64(-215))
	f.Fuzz(func(t *testing.T, noise []byte, seed int64) {
		code := MustNew(Rate23, 16)
		rng := rand.New(rand.NewSource(seed))
		info := make([]byte, code.K())
		for i := range info {
			info[i] = byte(rng.Intn(2))
		}
		cw := make([]byte, code.N())
		code.Encode(cw, info)
		llr := make([]float32, code.N())
		for i, b := range cw {
			if b == 0 {
				llr[i] = 4
			} else {
				llr[i] = -4
			}
			if len(noise) > 0 {
				// ±8 fuzz-chosen perturbation: enough to flip any bit's
				// channel evidence, so the corpus spans clean decodes,
				// multi-iteration corrections, and undecodable words.
				llr[i] += (float32(noise[i%len(noise)]) - 127.5) / 16
			}
		}
		const maxIter = 12
		var res [2]Result
		var out [2][]byte
		for k, flooding := range []bool{false, true} {
			d := NewDecoder(code)
			d.Flooding = flooding
			out[k] = make([]byte, code.K())
			res[k] = d.Decode(out[k], llr, maxIter)
			if !res[k].OK {
				continue
			}
			re := make([]byte, code.N())
			code.Encode(re, out[k])
			for v, lv := range d.l[:code.N()] {
				if hard := lv < 0; hard != (re[v] == 1) {
					t.Fatalf("flooding=%v reported success, but bit %d of its decision is not the codeword of its info bits", flooding, v)
				}
			}
		}
		if res[0].OK && res[0].Iterations == 0 || res[1].OK && res[1].Iterations == 0 {
			if res[0] != res[1] || !bytes.Equal(out[0], out[1]) {
				t.Fatalf("channel word is a codeword, yet layered %+v and flooding %+v differ", res[0], res[1])
			}
		}
	})
}

// FuzzCodewordShortcut is checkCodewordShortcut (shortcut_test.go) on
// fuzz-chosen LLR magnitudes: raw float32 bit patterns — signed zeros,
// infinities, denormals, anything but NaN (excluded there, for the reason
// given there) — repeated to length and given the signs of a random
// codeword, at a fuzz-chosen rate, lifting size from laneSweepZ and
// min-sum rule, on the Go loops and on the vector kernels where they
// exist.
func FuzzCodewordShortcut(f *testing.F) {
	f.Add([]byte{}, uint8(0), int64(1))
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0x80, 0x3F}, uint8(0x81), int64(2))             // −0, 1
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0x80, 0x7F, 0, 0, 0, 0x3F}, uint8(0x0e), int64(3)) // denormal, +Inf, 0.5
	f.Add([]byte{0xFF, 0xFF, 0x7F, 0x7F, 0, 0, 0, 0}, uint8(0x92), int64(4))          // MaxFloat32, +0
	f.Fuzz(func(t *testing.T, raw []byte, mix uint8, seed int64) {
		rate := []Rate{Rate13, Rate23, Rate89}[int(mix&3)%3]
		code := MustNew(rate, laneSweepZ[int(mix>>2&0x1f)%len(laneSweepZ)])
		alg := OffsetMinSum
		if mix&0x80 != 0 {
			alg = NormalizedMinSum
		}
		rng := rand.New(rand.NewSource(seed))
		cw := make([]byte, code.N())
		code.Encode(cw, randInfo(rng, code.K()))
		words := len(raw) / 4
		llr := codewordLLR(cw, func(v int) uint32 {
			if words == 0 {
				return math.Float32bits(4)
			}
			return binary.LittleEndian.Uint32(raw[4*(v%words):])
		})
		where := fmt.Sprintf("rate %v Z=%d alg=%d", rate, code.Z, alg)
		func() {
			defer forceGoKernels()()
			checkCodewordShortcut(t, where+" generic", code, alg, llr)
		}()
		if simdIterate != nil {
			checkCodewordShortcut(t, where+" "+Kernel(), code, alg, llr)
		}
	})
}

// FuzzLaneKernelsSIMD is the whole-decode differential between the
// platform's vector layer kernels and the Go loops (DESIGN §13): the
// fuzzer supplies raw float32 bit patterns — so NaNs with payloads,
// infinities, signed zeros and denormals all occur — for the LLRs of one
// block (repeated to length, XORed onto a valid noisy codeword when
// `mix` is odd so that converging decodes are explored too), and both
// kernels must return the same Result, the same information bits and a
// bit-identical posterior array. Skips where no vector kernel exists.
func FuzzLaneKernelsSIMD(f *testing.F) {
	f.Add([]byte{}, uint8(0), int64(1))
	f.Add([]byte{0, 0, 0xC0, 0x7F, 0, 0, 0x80, 0xFF}, uint8(1), int64(2))          // NaN, -Inf
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0x80, 0x3F}, uint8(2), int64(3)) // denormal, -0, 1
	f.Add([]byte{0xFF, 0xFF, 0x7F, 0x7F, 0, 0, 0x80, 0x7F}, uint8(7), int64(4))    // MaxFloat32, +Inf
	f.Add([]byte{0x10, 0x20, 0x30, 0x40}, uint8(5), int64(5))
	f.Fuzz(func(t *testing.T, raw []byte, mix uint8, seed int64) {
		if simdIterate == nil {
			t.Skip("no vector kernels on this CPU/GOARCH")
		}
		zs := []int{2, 7, 8, 10, 27, 33}
		code := MustNew(Rate23, zs[int(mix>>1)%len(zs)])
		rng := rand.New(rand.NewSource(seed))
		llr := noisyLLR(rng, code)
		if mix&1 == 0 {
			clear(llr)
		}
		words := len(raw) / 4
		for i := 0; i < words; i++ {
			w := binary.LittleEndian.Uint32(raw[4*i:])
			for v := i; v < len(llr); v += words {
				llr[v] = math.Float32frombits(math.Float32bits(llr[v]) ^ w)
			}
		}
		var res [2]Result
		var info [2][]byte
		var post [2][]float32
		for k := range res {
			d := NewDecoder(code)
			if mix&0x80 != 0 {
				d.Alg = NormalizedMinSum
			}
			info[k] = make([]byte, code.K())
			if k == 0 {
				restore := forceGoKernels()
				res[k] = d.Decode(info[k], llr, 8)
				restore()
			} else {
				res[k] = d.Decode(info[k], llr, 8)
			}
			post[k] = d.l
		}
		if res[0] != res[1] {
			t.Fatalf("Z=%d: go %+v != %s %+v", code.Z, res[0], Kernel(), res[1])
		}
		if !bytes.Equal(info[0], info[1]) {
			t.Fatalf("Z=%d: information bits differ", code.Z)
		}
		for i := range post[0] {
			if a, b := math.Float32bits(post[0][i]), math.Float32bits(post[1][i]); a != b {
				t.Fatalf("Z=%d: posterior[%d] go %#08x != %s %#08x", code.Z, i, a, Kernel(), b)
			}
		}
	})
}
