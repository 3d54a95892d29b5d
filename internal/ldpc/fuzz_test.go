package ldpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// FuzzDecodeSuccessIsCodeword perturbs a random codeword with
// fuzz-chosen noise and decodes it. Every reported success must be the
// codeword of its own information bits: re-encoding them reproduces the
// decoder's hard decisions, so a success on a word whose syndrome is not
// actually zero — the packed syndrome drifting from the true parity
// state, or a column's bits rotated back by the wrong shift, the bug
// classes this hunts — fails here. Min-sum is not
// maximum-likelihood, so a success need not be the transmitted codeword
// (the two "0XX…" seeds converge to another one).
func FuzzDecodeSuccessIsCodeword(f *testing.F) {
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
		d := NewDecoder(code)
		out := make([]byte, code.K())
		if !d.Decode(out, llr, maxIter).OK {
			return
		}
		re := make([]byte, code.N())
		code.Encode(re, out)
		if !bytes.Equal(hardBits(d), re) {
			t.Fatal("reported success, but its decisions are not the codeword of its info bits")
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
// platform's vector kernels and the Go loops (DESIGN §13): the fuzzer
// supplies raw float32 bit patterns — so NaNs with payloads, infinities,
// signed zeros and subnormals all occur — for the LLRs of one block
// (repeated to length, XORed onto a valid noisy codeword when `mix` is
// odd so that converging decodes are explored too) at a lifting size
// below 8, a multiple of 8, one either side of one, or past one word per
// block. Both kernels must return the same Result and information bits,
// bit-identical posteriors on every real lane (lanes [Z, zp) are junk)
// and the same packed hard decisions, with every bit past Z still 0, and
// neither may write into the poisoned slack around l, r
// or the Q slab. Skips where no vector kernel exists.
func FuzzLaneKernelsSIMD(f *testing.F) {
	f.Add([]byte{}, uint8(0), int64(1))
	f.Add([]byte{0, 0, 0xC0, 0x7F, 0, 0, 0x80, 0xFF}, uint8(1), int64(2))          // NaN, -Inf
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0x80, 0x3F}, uint8(2), int64(3)) // subnormal, -0, 1
	f.Add([]byte{0xFF, 0xFF, 0x7F, 0x7F, 0, 0, 0x80, 0x7F}, uint8(7), int64(4))    // MaxFloat32, +Inf
	f.Add([]byte{0x10, 0x20, 0x30, 0x40}, uint8(5), int64(5))
	f.Add([]byte{0x9a, 0x99, 0x19, 0xbf}, uint8(21), int64(6)) // -0.6, Z=65
	f.Fuzz(func(t *testing.T, raw []byte, mix uint8, seed int64) {
		if simdIterate == nil {
			t.Skip("no vector kernels on this CPU/GOARCH")
		}
		zs := []int{2, 7, 8, 9, 15, 16, 17, 27, 33, 57, 65, 104}
		code := MustNew(Rate23, zs[int(mix>>1&0x3f)%len(zs)])
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
		var dec [2]*Decoder
		for k := range res {
			d := NewDecoder(code)
			if mix&0x80 != 0 {
				d.Alg = NormalizedMinSum
			}
			intact := []func() bool{guardPosteriors(d)}
			var ok func() bool
			d.r, ok = guard(len(d.r), float32(-23456.25))
			intact = append(intact, ok)
			d.laneQ, ok = guard(len(d.laneQ), float32(-34567.75))
			intact = append(intact, ok)
			info[k] = make([]byte, code.K())
			if k == 0 {
				restore := forceGoKernels()
				res[k] = d.Decode(info[k], llr, 8)
				restore()
			} else {
				res[k] = d.Decode(info[k], llr, 8)
			}
			for _, ok := range intact {
				if !ok() {
					t.Fatalf("Z=%d kernel %d: decode wrote into the slack around l, r or q", code.Z, k)
				}
			}
			checkPackedTails(t, fmt.Sprintf("Z=%d kernel %d", code.Z, k), d)
			dec[k] = d
		}
		if res[0] != res[1] {
			t.Fatalf("Z=%d: go %+v != %s %+v", code.Z, res[0], Kernel(), res[1])
		}
		if !bytes.Equal(info[0], info[1]) {
			t.Fatalf("Z=%d: information bits differ", code.Z)
		}
		if i := lanesEqual(dec[0].l, dec[1].l, code.Z, dec[0].zp); i >= 0 {
			t.Fatalf("Z=%d: posterior[%d] go %#08x != %s %#08x", code.Z, i, math.Float32bits(dec[0].l[i]), Kernel(), math.Float32bits(dec[1].l[i]))
		}
		if !slices.Equal(dec[0].hard, dec[1].hard) {
			t.Fatalf("Z=%d: packed hard decisions differ between go and %s", code.Z, Kernel())
		}
	})
}

// FuzzLoadLLRKernelsSIMD is loadLLR's differential between the platform's
// vector sign pack and the Go loop (DESIGN §13): the fuzzer supplies raw
// float32 bit patterns, repeated to length, for one block at a
// fuzz-chosen lifting size from 2 to 128 (one or two words per
// block-column). Both must copy the same posterior bits to the real lanes
// of the padded slab and pack the same hard words, with every bit past Z
// still 0, and neither may write past its slabs: l and hard sit between
// poisoned margins, and hard's words start from the last block's
// decisions. Skips where no vector kernel
// exists.
func FuzzLoadLLRKernelsSIMD(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 0x80, 1, 0, 0, 0x80}, uint8(25))                                // −0, −denormal
	f.Add([]byte{0, 0, 0xC0, 0xFF, 0x45, 0x23, 0xC1, 0x7F}, uint8(62))                    // NaNs
	f.Add([]byte{0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0, 0, 0x80, 0x3F}, uint8(102)) // −Inf, −MaxFloat32, 1
	f.Fuzz(func(t *testing.T, raw []byte, zsel uint8) {
		if simdLoad == nil {
			t.Skip("no vector kernels on this CPU/GOARCH")
		}
		code := MustNew(Rate89, 2+int(zsel)%127)
		llr := make([]float32, code.N())
		if words := len(raw) / 4; words > 0 {
			for v := range llr {
				llr[v] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(v%words):]))
			}
		}
		prev := make([]float32, code.N())
		for v := range prev {
			prev[v] = float32(v%3) - 1
		}
		var dec [2]*Decoder
		for k := range dec {
			d := NewDecoder(code)
			lOK := guardPosteriors(d)
			var hardOK func() bool
			d.hard, hardOK = guard(len(d.hard), uint64(0xa5a5a5a5a5a5a5a5))
			clear(d.hard)
			restore := func() {}
			if k == 0 {
				restore = forceGoKernels()
			}
			d.loadLLR(prev)
			d.loadLLR(llr)
			restore()
			if !lOK() || !hardOK() {
				t.Fatalf("Z=%d kernel %d: loadLLR wrote past its slabs", code.Z, k)
			}
			checkPackedTails(t, fmt.Sprintf("Z=%d kernel %d", code.Z, k), d)
			dec[k] = d
		}
		if i := lanesEqual(dec[0].l, dec[1].l, code.Z, dec[0].zp); i >= 0 {
			t.Fatalf("Z=%d: posterior[%d] go %#08x != %s %#08x", code.Z, i, math.Float32bits(dec[0].l[i]), Kernel(), math.Float32bits(dec[1].l[i]))
		}
		if !slices.Equal(dec[0].hard, dec[1].hard) {
			t.Fatalf("Z=%d: hard words differ\n go  %016x\n %s %016x", code.Z, dec[0].hard, Kernel(), dec[1].hard)
		}
	})
}
